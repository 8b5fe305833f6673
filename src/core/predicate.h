// Range predicates over discretized attributes.
//
// The paper's query class (Query (1), Section 1) is a conjunction of range
// predicates l_i <= X_i <= r_i. The Garden workload (Section 6.2) also uses
// negated ranges NOT(a <= X <= b), so Predicate carries a `negated` flag.

#ifndef CAQP_CORE_PREDICATE_H_
#define CAQP_CORE_PREDICATE_H_

#include <string>

#include "core/schema.h"
#include "core/types.h"

namespace caqp {

struct Predicate {
  AttrId attr = kInvalidAttr;
  /// Inclusive discretized bounds l <= X <= r.
  Value lo = 0;
  Value hi = 0;
  /// If true, the predicate is NOT(lo <= X <= hi).
  bool negated = false;

  Predicate() = default;
  Predicate(AttrId a, Value l, Value h, bool neg = false)
      : attr(a), lo(l), hi(h), negated(neg) {
    CAQP_CHECK_LE(l, h);
  }

  /// Truth of the predicate on a concrete attribute value.
  bool Matches(Value v) const {
    const bool in = (lo <= v && v <= hi);
    return negated ? !in : in;
  }

  /// Truth on a full tuple.
  bool Matches(const Tuple& t) const {
    CAQP_DCHECK(attr < t.size());
    return Matches(t[attr]);
  }

  /// Three-valued truth given only that X lies in `range`:
  ///  * kTrue    if every value in range satisfies the predicate,
  ///  * kFalse   if none does,
  ///  * kUnknown otherwise.
  Truth EvaluateOnRange(const ValueRange& range) const;

  bool operator==(const Predicate& o) const = default;

  /// AbslHashValue-style stable 64-bit hash, consistent with operator==
  /// (equal predicates hash equal). Input to query signatures
  /// (core/query_signature.h) and the serve-layer plan-cache key, so the
  /// value must not depend on process state or pointer identity.
  uint64_t Hash() const;

  /// "X3 in [2,5]" / "X3 not in [2,5]" with the schema's attribute name.
  std::string ToString(const Schema& schema) const;
};

}  // namespace caqp

#endif  // CAQP_CORE_PREDICATE_H_
