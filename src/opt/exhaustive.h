// ExhaustivePlan (paper Section 3.2, Figure 5): depth-first dynamic program
// over attribute-range subproblems with memoization, computing the minimum
// expected-cost conditional plan.
//
// Deviations from the paper's pseudo-code, all conservative:
//  * Memoization-first instead of branch-and-bound: the paper threads a
//    cost bound C-bar through the recursion and skips caching pruned
//    results. In our experiments that re-solves the same subproblem under
//    ever-growing bounds hundreds of times; solving each distinct
//    subproblem exactly once (bound = infinity) and caching it is strictly
//    faster on the SPSF-restricted grids where Exhaustive is feasible at
//    all. The paper's candidate-level pruning (skip an attribute whose
//    observation cost alone exceeds the best candidate so far, and abandon
//    a candidate once its partial cost does) is kept -- it is safe because
//    child results are exact.
//  * Sequential completion: at every subproblem the optimal sequential plan
//    over the undetermined query predicates is admitted as a candidate
//    "leaf". This keeps the planner total under restricted split-point sets
//    (where grid splits alone may be unable to resolve the query) and
//    guarantees C(Exhaustive) <= C(OptSeq). With an unrestricted grid the
//    returned cost equals the paper's optimum, since a sequential completion
//    is itself expressible as grid splits.
//
// Worst-case complexity is O(n K K^{2n}) subproblem work (paper Section
// 3.2) -- only feasible for few attributes with small domains; benches use
// SPSF restriction to keep it tractable, exactly as the paper does. With r_i
// candidate points per attribute the number of distinct subproblems is
// bounded by prod_i (r_i + 1)(r_i + 2) / 2.

#ifndef CAQP_OPT_EXHAUSTIVE_H_
#define CAQP_OPT_EXHAUSTIVE_H_

#include "opt/optseq.h"
#include "opt/planner.h"
#include "opt/split_points.h"

namespace caqp {

class ExhaustivePlanner : public Planner {
 public:
  struct Options {
    /// Candidate conditioning split points (SPSF restriction). Required.
    const SplitPointSet* split_points = nullptr;
  };

  ExhaustivePlanner(CondProbEstimator& estimator,
                    const AcquisitionCostModel& cost_model, Options options)
      : estimator_(estimator), cost_model_(cost_model), options_(options) {
    CAQP_CHECK(options_.split_points != nullptr);
  }

  std::string Name() const override { return "Exhaustive"; }
  CondProbEstimator* estimator() const override { return &estimator_; }

 protected:
  /// `stats.expected_cost` is the built plan's expected cost per the DP
  /// (== its Equation (3) value under the training estimator).
  /// `stats.bound_prunes` counts both of the paper's candidate-level
  /// prunes: attributes whose observation cost alone reaches the best
  /// candidate, and candidates abandoned once their "<" side does.
  Plan BuildPlanImpl(const Query& query,
                     obs::PlannerStats& stats) const override;

 private:
  /// Per-build scratch (defined in exhaustive.cc): the DP memo table, the
  /// node arena the recursion builds into, split/verdict interning tables,
  /// and the build's PlannerStats. Lives on the BuildPlan stack so
  /// concurrent builds on one instance never share mutable state. The DP
  /// never allocates PlanNode trees: subplans are uint32 handles into the
  /// arena, a memo hit returns the cached handle itself (O(1), no deep
  /// clones), and the winning root is materialized into a pointer tree
  /// exactly once at the end. Memo-hit structural identity therefore holds
  /// by construction -- two hits on one subproblem yield the same node, not
  /// equal copies.
  struct BuildContext;

  /// Solves a subproblem exactly; returns (expected cost, arena handle).
  /// Results are memoized by range vector.
  std::pair<double, uint32_t> Solve(const Query& query, const RangeVec& ranges,
                                    BuildContext& ctx) const;

  /// Zero-or-known-cost completion leaf once splits are no longer useful:
  /// the optimal sequential plan (conjunctive) or a generic acquire-and-test
  /// leaf (DNF), with its expected cost under the estimator.
  std::pair<double, uint32_t> CompletionLeaf(const Query& query,
                                             const RangeVec& ranges,
                                             BuildContext& ctx) const;

  CondProbEstimator& estimator_;
  const AcquisitionCostModel& cost_model_;
  Options options_;
  OptSeqSolver optseq_;
};

}  // namespace caqp

#endif  // CAQP_OPT_EXHAUSTIVE_H_
