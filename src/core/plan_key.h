// PlanKey: the identity of a served plan.
//
// A conditional plan is only as good as the beliefs it was built from, so a
// served plan is named by three things together:
//  * query signature — QuerySignature(query) (core/query_signature.h):
//    canonicalized, so predicate/conjunct order never changes the key.
//  * estimator version — a counter the serving owner (QueryService,
//    dist::Coordinator) bumps whenever the statistics a planner would train
//    on change. Bumping orphans every plan built under the old beliefs.
//  * planner fingerprint — PlanBuilder::ConfigFingerprint(): planner kind +
//    options + training-data identity, so different planner configs never
//    alias plans.
//
// One struct carries this identity everywhere it is needed: the serve and
// shard plan caches and single-flight key on it, CalibrationAggregator rows
// are keyed by it, and every span event and flight-recorder incident of a
// request carries it (obs/span.h), so all of them join 1:1.

#ifndef CAQP_CORE_PLAN_KEY_H_
#define CAQP_CORE_PLAN_KEY_H_

#include <compare>
#include <cstddef>
#include <cstdint>

#include "core/types.h"

namespace caqp {

struct PlanKey {
  uint64_t query_sig = 0;
  uint64_t estimator_version = 0;
  uint64_t planner_fingerprint = 0;

  /// Member-wise, in declaration order (a deterministic report order).
  auto operator<=>(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    size_t h = HashCombine(k.query_sig, k.estimator_version);
    return HashCombine(h, k.planner_fingerprint);
  }
};

}  // namespace caqp

#endif  // CAQP_CORE_PLAN_KEY_H_
