// GreedyPlan (paper Section 4.2, Figures 6-7): the polynomial-time heuristic
// conditional planner.
//
// GREEDYSPLIT finds, for a subproblem, the binary conditioning split
// T(X_i >= x) that minimizes
//     C'_i + P(< x) * SeqCost(subproblem_<) + P(>= x) * SeqCost(subproblem_>=)
// where SeqCost is the expected cost of the *sequential* base plan (OptSeq or
// GreedySeq) for each child. GREEDYPLAN grows the conditional plan leaf by
// leaf through a priority queue ordered by
//     P(reach leaf) * (SeqCost(leaf) - best split cost)
// until MAXSIZE splits are placed (the paper's plan-size bound for mote RAM),
// the queue is exhausted, or -- our Section 2.4 extension -- the expected
// gain of the best expansion no longer covers alpha * (marginal plan bytes).
//
// "Heuristic-k" in the paper's evaluation is this planner with max_splits=k;
// max_splits=0 degenerates to the sequential base plan (CorrSeq).

#ifndef CAQP_OPT_GREEDY_PLAN_H_
#define CAQP_OPT_GREEDY_PLAN_H_

#include <memory>

#include "opt/planner.h"
#include "opt/split_points.h"

namespace caqp {

class GreedyPlanner : public Planner {
 public:
  struct Options {
    /// Candidate conditioning points (SPSF restriction). Required.
    const SplitPointSet* split_points = nullptr;
    /// Base sequential planner used at every (sub)leaf. Required.
    const SequentialSolver* seq_solver = nullptr;
    /// Maximum number of conditioning splits (the paper's MAXSIZE).
    size_t max_splits = 5;
    /// Plan-size penalty (Section 2.4): expand a leaf only while
    /// expected_gain > size_penalty_alpha * marginal_serialized_bytes.
    /// 0 disables the size term.
    double size_penalty_alpha = 0.0;
    /// Hard bound on the serialized plan size (Section 2.4's "bound the
    /// plan size to be under some fixed size ... to easily fit into device
    /// RAM"). Expansions that would push zeta(P) past this are skipped.
    /// 0 disables the bound.
    size_t max_plan_bytes = 0;
  };

  GreedyPlanner(CondProbEstimator& estimator,
                const AcquisitionCostModel& cost_model, Options options)
      : estimator_(estimator), cost_model_(cost_model), options_(options) {
    CAQP_CHECK(options_.split_points != nullptr);
    CAQP_CHECK(options_.seq_solver != nullptr);
  }

  std::string Name() const override {
    return "Heuristic-" + std::to_string(options_.max_splits);
  }
  CondProbEstimator* estimator() const override { return &estimator_; }

 protected:
  /// Conjunctive queries only (sequential base plans are conjunctive).
  /// `stats.expected_cost` is the Equation (6)-style expected cost of the
  /// built plan under the training estimator.
  Plan BuildPlanImpl(const Query& query,
                     obs::PlannerStats& stats) const override;

 private:
  struct GNode;

  /// Fills node->split_* with the locally optimal binary split (Figure 6);
  /// leaves has_split=false if no split strictly improves on the leaf's
  /// sequential plan. `stats` is the build's diagnostics record.
  void GreedySplit(GNode* node, obs::PlannerStats& stats) const;

  /// Child subproblem shell for a candidate split: refined ranges, child
  /// predicate set, projected mask distribution (base plan still unsolved).
  static std::unique_ptr<GNode> MakeChildShell(const GNode& parent,
                                               AttrId attr,
                                               ValueRange child_range,
                                               const MaskDistribution& masks,
                                               MaskDistribution* projected);

  /// Serialized size of `node` if emitted as a plan leaf.
  static size_t LeafBytes(const GNode& node);

  /// Solves the sequential base plan for a child subproblem given its
  /// projected mask distribution.
  void SolveLeafState(GNode* node, const MaskDistribution& masks,
                      obs::PlannerStats& stats) const;

  std::unique_ptr<PlanNode> Materialize(const GNode& node) const;
  double SubtreeExpectedCost(const GNode& node) const;

  CondProbEstimator& estimator_;
  const AcquisitionCostModel& cost_model_;
  Options options_;
};

}  // namespace caqp

#endif  // CAQP_OPT_GREEDY_PLAN_H_
