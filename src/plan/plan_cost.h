// Plan costing.
//
//  * ExpectedPlanCost: the analytic expected cost C(P) of Equation (3),
//    evaluated against any CondProbEstimator, at the point estimates or at
//    one scenario of an uncertainty box (CostScenario below). This is the
//    library's one Eq. 3 walk: ExpectedSubplanCost is its subtree entry,
//    EstimatePlan (plan/plan_estimates.h) records its per-node beliefs as it
//    runs, and the robust planner (opt/uncertainty.h, opt/regret.h) prices
//    every corner scenario with it. Under a DatasetEstimator the point cost
//    equals the empirical mean execution cost over the same dataset exactly
//    (Equation (4)); tests enforce that identity.
//  * EmpiricalPlanCost: mean realized acquisition cost of running the plan
//    over a concrete dataset (the paper's test-set evaluation), plus verdict
//    accuracy against the original query (always 1.0 for our planners; the
//    paper stresses its plans never err, unlike approximate predicate work).
//    Each row runs through the executor itself (ExecutePlan over a
//    RowSource), so the empirical cost is what execution charges.
//
// Both costs take the CompiledPlan flat form only; a planner's Plan tree is
// compiled first (CompiledPlan::Compile).

#ifndef CAQP_PLAN_PLAN_COST_H_
#define CAQP_PLAN_PLAN_COST_H_

#include <array>

#include "core/dataset.h"
#include "core/query.h"
#include "obs/trace.h"
#include "opt/cost_model.h"
#include "plan/compiled_plan.h"
#include "plan/plan_estimates.h"
#include "prob/estimator.h"

namespace caqp {

/// One point of an uncertainty box (opt/uncertainty.h): concrete
/// per-attribute pass-probability shifts and transient fault rates. The
/// default (all-zero) scenario is the point estimate itself.
///  * shift[a] is added to every pass probability of attribute a — P(X_a >=
///    split) at split nodes, the conditional predicate pass probability at
///    sequential leaves — and the sum is clamped to [0, 1].
///  * fault[a] = f multiplies every acquisition charge of attribute a by
///    1/(1 - f), the expected attempts under retry-until-success (f is
///    clamped to [0, 0.99], so no scenario divides by zero).
struct CostScenario {
  std::array<double, kMaxAttributes> shift{};
  std::array<double, kMaxAttributes> fault{};
};

/// Expected cost per Equation (3): recursive expectation over the branch
/// probabilities supplied by `estimator`, with acquisition charges from
/// `cost_model` (an attribute is charged the first time its range narrows on
/// a root-to-leaf path; sequential leaves charge per predicate, weighted by
/// the chained conditional pass probabilities of the predicates before it),
/// perturbed by `scenario`. Generic leaves take the scenario's fault
/// multipliers but keep point probabilities, because their evaluation order
/// is data-dependent. ExpectedPlanCost(plan, est, cm) and
/// ExpectedPlanCost(plan, est, cm, CostScenario{}) are the same number.
double ExpectedPlanCost(const CompiledPlan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model,
                        const CostScenario& scenario = CostScenario{});

/// Expected completion cost of the subtree rooted at `index`, conditioned on
/// the plan having reached it with the attribute ranges implied by the splits
/// above. ExpectedPlanCost(plan, ...) == ExpectedSubplanCost(plan, 0,
/// schema.FullRanges(), ...). Used by the EXPLAIN printer.
double ExpectedSubplanCost(const CompiledPlan& plan, uint32_t index,
                           const RangeVec& ranges,
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

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_COST_H_
