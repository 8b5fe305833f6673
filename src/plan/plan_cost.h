// Plan costing.
//
//  * ExpectedPlanCost: the analytic expected cost C(P) of Equation (3),
//    evaluated against any CondProbEstimator. Under a DatasetEstimator this
//    equals the empirical mean execution cost over the same dataset exactly
//    (Equation (4)); tests enforce that identity.
//  * EmpiricalPlanCost: mean realized acquisition cost of running the plan
//    over a concrete dataset (the paper's test-set evaluation), plus verdict
//    accuracy against the original query (always 1.0 for our planners; the
//    paper stresses its plans never err, unlike approximate predicate work).
//    Each row runs through the executor itself (ExecutePlan over a
//    RowSource), so the empirical cost is what execution charges.
//
// Both costs run over the CompiledPlan flat form; the Plan/PlanNode entry
// points compile once and delegate, so the arithmetic (and hence the
// floating-point result) is identical whichever form the caller holds.

#ifndef CAQP_PLAN_PLAN_COST_H_
#define CAQP_PLAN_PLAN_COST_H_

#include "core/dataset.h"
#include "core/query.h"
#include "obs/trace.h"
#include "opt/cost_model.h"
#include "plan/compiled_plan.h"
#include "plan/plan.h"
#include "prob/estimator.h"

namespace caqp {

/// Expected cost per Equation (3): recursive expectation over the branch
/// probabilities supplied by `estimator`, with acquisition charges from
/// `cost_model` (an attribute is charged the first time its range narrows on
/// a root-to-leaf path; sequential leaves charge per-predicate with
/// conditional pass probabilities).
double ExpectedPlanCost(const CompiledPlan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model);
/// Tree convenience form: compiles once, then costs the flat form.
double ExpectedPlanCost(const Plan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model);

/// Expected completion cost of the subtree rooted at `index`, conditioned on
/// the plan having reached it with the attribute ranges implied by the splits
/// above. ExpectedPlanCost(plan, ...) == ExpectedSubplanCost(plan, 0,
/// schema.FullRanges(), ...). Used by the EXPLAIN printer.
double ExpectedSubplanCost(const CompiledPlan& plan, uint32_t index,
                           const RangeVec& ranges,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model);
/// Tree convenience form: compiles the subtree at `node`, then costs it.
double ExpectedSubplanCost(const PlanNode& node, const RangeVec& ranges,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model);

struct EmpiricalCostResult {
  double mean_cost = 0.0;        ///< mean acquisition cost per tuple
  double total_cost = 0.0;       ///< summed over all tuples
  size_t tuples = 0;             ///< dataset size
  size_t verdict_errors = 0;     ///< plan verdict != query truth
  double mean_acquisitions = 0;  ///< mean #attributes acquired per tuple
};

/// Runs the plan over every tuple of `data`, charging `cost_model`, and
/// checks each verdict against `query`. If `trace` is non-null it receives
/// the execution events of every tuple, exactly as a per-row ExecutePlan
/// emits them (e.g. an AttributeProfile to collect per-attribute
/// acquisition histograms).
EmpiricalCostResult EmpiricalPlanCost(const CompiledPlan& plan,
                                      const Dataset& data, const Query& query,
                                      const AcquisitionCostModel& cost_model,
                                      TraceSink* trace = nullptr);
/// Tree convenience form: compiles once, then runs the flat form.
EmpiricalCostResult EmpiricalPlanCost(const Plan& plan, const Dataset& data,
                                      const Query& query,
                                      const AcquisitionCostModel& cost_model,
                                      TraceSink* trace = nullptr);

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_COST_H_
