#include "core/predicate.h"

#include <cstdio>

namespace caqp {

uint64_t Predicate::Hash() const {
  // Pack the four fields into one word, then finalize with splitmix64 so
  // near-identical predicates (adjacent bounds, negation flips) land far
  // apart. The packing is injective, so distinct predicates never collide
  // before mixing.
  const uint64_t x = (uint64_t{attr} << 33) | (uint64_t{lo} << 17) |
                     (uint64_t{hi} << 1) | (negated ? 1u : 0u);
  return Mix64(x + kGoldenGamma);
}

Truth Predicate::EvaluateOnRange(const ValueRange& range) const {
  const bool fully_inside = (lo <= range.lo && range.hi <= hi);
  const bool disjoint = (range.hi < lo || range.lo > hi);
  if (fully_inside) return negated ? Truth::kFalse : Truth::kTrue;
  if (disjoint) return negated ? Truth::kTrue : Truth::kFalse;
  return Truth::kUnknown;
}

std::string Predicate::ToString(const Schema& schema) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %sin [%u,%u]",
                schema.name(attr).c_str(), negated ? "not " : "",
                static_cast<unsigned>(lo), static_cast<unsigned>(hi));
  return buf;
}

}  // namespace caqp
