// Plan verification: proves (or samples) that a plan decides a query
// correctly. The paper's central correctness claim is that conditional
// plans, unlike approximate-predicate techniques, "guarantee correct
// execution of the original query in all cases" -- these utilities make
// that property checkable for any plan, e.g. one deserialized from a
// foreign basestation.

#ifndef CAQP_PLAN_PLAN_VERIFY_H_
#define CAQP_PLAN_PLAN_VERIFY_H_

#include <cstdint>
#include <optional>

#include "core/query.h"
#include "core/schema.h"
#include "plan/compiled_plan.h"

namespace caqp {

struct PlanVerificationResult {
  bool correct = true;
  /// Tuples checked (the whole domain product, or `samples`).
  uint64_t tuples_checked = 0;
  /// A witness tuple where the plan and the query disagree, if any.
  std::optional<Tuple> counterexample;
};

/// Exhaustively enumerates the attribute-domain product and compares the
/// plan's verdict with the query on every tuple. The verdict is the one
/// ExecutePlan reaches: both verifiers run the executing walk over each
/// tuple, with infallible acquisition and no instrumentation (the exec.*
/// counters do not move). Plans must be well formed (PlanIsWellFormed).
/// Intended for small schemas (the domain product is checked against
/// `max_tuples` and the call aborts verification -- returning correct=false
/// with no counterexample is never possible; instead the function CHECKs
/// the budget).
PlanVerificationResult VerifyPlanExhaustive(const CompiledPlan& plan,
                                            const Query& query,
                                            const Schema& schema,
                                            uint64_t max_tuples = 10'000'000);

/// Randomized verification: checks `samples` uniformly random tuples.
/// Misses nothing with probability growing in the sample count; suited to
/// schemas whose domain product is too large to enumerate.
PlanVerificationResult VerifyPlanSampled(const CompiledPlan& plan,
                                         const Query& query,
                                         const Schema& schema,
                                         uint64_t samples, uint64_t seed = 1);

/// Structural well-formedness: split values within domains, attributes
/// within schema, sequential/generic leaves reference valid predicates.
/// Deserialization already enforces this; exposed for plans built in-process.
bool PlanIsWellFormed(const CompiledPlan& plan, const Schema& schema);

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_VERIFY_H_
