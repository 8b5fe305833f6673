// Small data builders shared by the google-benchmark binaries.

#ifndef CAQP_BENCH_TEST_SUPPORT_H_
#define CAQP_BENCH_TEST_SUPPORT_H_

#include <string>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/query.h"

namespace caqp {
namespace benchsupport {

/// n attributes of domain k; attribute 0 is cheap (cost 1) and every other
/// attribute tracks it (cost 100) with 25% noise.
inline Dataset MakeCorrelated(uint32_t n, uint32_t k, size_t rows,
                              uint64_t seed) {
  Schema schema;
  for (uint32_t a = 0; a < n; ++a) {
    schema.AddAttribute(std::string("x").append(std::to_string(a)), k,
                        a == 0 ? 1.0 : 100.0);
  }
  Rng rng(seed);
  Dataset ds(schema);
  Tuple t(n);
  for (size_t r = 0; r < rows; ++r) {
    const auto base = static_cast<uint32_t>(rng.UniformInt(0, k - 1));
    t[0] = static_cast<Value>(base);
    for (uint32_t a = 1; a < n; ++a) {
      t[a] = static_cast<Value>(
          rng.Bernoulli(0.25) ? rng.UniformInt(0, k - 1) : base);
    }
    ds.Append(t);
  }
  return ds;
}

/// Conjunctive query over the last `m` (expensive) attributes, each
/// predicate covering the middle half of the domain.
inline Query MidRangeQuery(const Schema& schema, size_t m) {
  Conjunct preds;
  const size_t n = schema.num_attributes();
  for (size_t i = 0; i < m && i + 1 < n; ++i) {
    const AttrId a = static_cast<AttrId>(n - 1 - i);
    const uint32_t k = schema.domain_size(a);
    preds.emplace_back(a, static_cast<Value>(k / 4),
                       static_cast<Value>(3 * k / 4 - 1));
  }
  return Query::Conjunction(std::move(preds));
}

}  // namespace benchsupport
}  // namespace caqp

#endif  // CAQP_BENCH_TEST_SUPPORT_H_
