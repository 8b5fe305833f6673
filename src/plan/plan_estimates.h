// Predicted per-node side tables for a compiled plan.
//
// At plan time an estimator believes things about every node of the plan it
// just built: how often the node will be reached, how often its test will
// pass, and how much acquisition cost it will charge. EstimatePlan walks a
// CompiledPlan with the same recursion (and the same degenerate-split and
// zero-probability handling) as ExpectedPlanCost and records those beliefs
// in flat arrays indexed by node — the "predicted" half that obs/calibration
// joins against the executor's observed counters (exec/exec_profile.h).
//
// Semantics, per node i (flat CompiledPlan preorder index):
//  * reach — probability a tuple drawn from the estimated distribution
//    reaches node i. Root = 1. Sums over a level need not be 1 because
//    degenerate splits route all mass one way.
//  * pass — conditional probability the node's test succeeds given the node
//    is reached: P(X >= split) for splits, P(all residual predicates true)
//    for sequential leaves, verdict (1/0) for verdict leaves. Generic leaves
//    and unreachable nodes carry the sentinel -1 ("no estimate").
//  * cost — expected acquisition cost charged at node i given it is reached
//    (first-touch observe charge for splits; per-predicate conditional
//    charges for sequential leaves; full residual-walk expectation for
//    generic leaves). Sum over nodes of reach*cost == expected_cost, which
//    matches ExpectedPlanCost up to summation order.
//
// attr_eval_rate / attr_pass_rate aggregate the same beliefs per attribute:
// expected number of predicate evaluations (and passes) of attribute `a` per
// executed tuple. Generic leaves contribute nothing to the per-attribute
// rates (their evaluation order is data-dependent); calibration treats
// attributes only touched by generic leaves as uncalibrated.

#ifndef CAQP_PLAN_PLAN_ESTIMATES_H_
#define CAQP_PLAN_PLAN_ESTIMATES_H_

#include <array>
#include <vector>

#include "opt/cost_model.h"
#include "plan/compiled_plan.h"
#include "prob/estimator.h"

namespace caqp {

/// Schemas are capped at 64 attributes (AttrSet is one uint64_t); the
/// per-attribute rate tables are sized to that cap.
inline constexpr size_t kEstimateMaxAttrs = 64;

struct NodeEstimate {
  double reach = 0.0;  ///< P(node reached); root = 1
  double pass = -1.0;  ///< P(test passes | reached); -1 = no estimate
  double cost = 0.0;   ///< expected acquisition cost at this node | reached
};

struct PlanEstimates {
  /// One entry per CompiledPlan node, same indexing.
  std::vector<NodeEstimate> nodes;
  /// Expected predicate evaluations of attribute a per tuple.
  std::array<double, kEstimateMaxAttrs> attr_eval_rate{};
  /// Expected predicate passes of attribute a per tuple.
  std::array<double, kEstimateMaxAttrs> attr_pass_rate{};
  /// Expected acquisition cost per tuple (== ExpectedPlanCost up to
  /// floating-point summation order).
  double expected_cost = 0.0;
  /// Version of the estimator that produced these numbers (the serve layer's
  /// estimator-version counter; 0 outside serve).
  uint64_t estimator_version = 0;

  // --- Robust-planning stamp (opt/uncertainty.h) -------------------------
  // When the plan was built (or costed) under an uncertainty box, the box
  // and the interval cost evaluation over it ride along with the point
  // estimates, so calibration can score the robust plan against the range
  // it promised, not just its point cost. Raw arrays rather than the
  // UncertaintyBox type to keep plan/ free of an opt/uncertainty include
  // cycle; opt::StampEstimatesWithBox fills them.
  bool has_cost_bounds = false;
  double cost_lo = 0.0;  ///< min expected cost over the box's corners
  double cost_hi = 0.0;  ///< max expected cost over the box's corners
  /// The box itself: additive pass-probability shift intervals per
  /// attribute. All-zero (with has_cost_bounds false) means point planning.
  std::array<double, kEstimateMaxAttrs> box_shift_lo{};
  std::array<double, kEstimateMaxAttrs> box_shift_hi{};
};

/// Stamps predicted side tables for `plan` under `estimator`/`cost_model`.
/// O(nodes) walk with the ExpectedPlanCost recursion; the plan is unchanged
/// (callers attach the result via CompiledPlan::AttachEstimates).
PlanEstimates EstimatePlan(const CompiledPlan& plan,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model);

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_ESTIMATES_H_
