// Planner interface and shared helpers: every optimizer (Naive, CorrSeq,
// Exhaustive, GreedyPlan) turns a Query into an executable Plan using a
// probability estimator, an acquisition cost model, and (for conditional
// planners) a candidate split-point set.

#ifndef CAQP_OPT_PLANNER_H_
#define CAQP_OPT_PLANNER_H_

#include <functional>
#include <mutex>
#include <string>

#include "core/query.h"
#include "obs/planner_stats.h"
#include "obs/span.h"
#include "opt/cost_model.h"
#include "opt/sequential.h"
#include "plan/plan.h"
#include "prob/estimator.h"

namespace caqp {

/// Thread-safety contract (caqp::serve shares planner instances):
///
///   BuildPlan is const. A build keeps its scratch on the stack and counts
///   into one stack-local obs::PlannerStats, which BuildPlan commits under
///   an internal mutex when the build finishes. Greedy, Exhaustive and
///   sequential builds touch no other instance state; RegretPlanner also
///   commits its regret Stats under that mutex. One planner instance may
///   therefore run concurrent BuildPlan calls **iff the CondProbEstimator
///   it references is itself safe for concurrent use**:
///     * DatasetEstimator / IndependentEstimator / ChowLiuEstimator —
///       immutable after construction with per-call scratch, safe to share
///       across threads.
///   Diagnostics (planner_stats(), RegretPlanner::stats()) describe the
///   most recently *completed* build and are unsynchronized on the read
///   side: read them only while no build is in flight.
class Planner {
 public:
  virtual ~Planner() = default;
  virtual std::string Name() const = 0;
  /// Builds a plan for `query`. The query must be valid for the estimator's
  /// schema; sequential planners additionally require a conjunctive query.
  Plan BuildPlan(const Query& query) const {
    // Span site for request tracing (obs/span.h): no-op unless the calling
    // thread is inside a serve request scope.
    CAQP_OBS_SPAN(build_span, "planner.build");
    obs::PlannerStats stats;
    stats.Reset(Name());
    Plan plan = BuildPlanImpl(query, stats);
    std::lock_guard<std::mutex> lock(diag_mu_);
    planner_stats_ = std::move(stats);
    return plan;
  }

  /// Diagnostics of the most recent completed BuildPlan call (memo hits,
  /// prunes, splits considered/taken, Eq. 3 expected cost, ... — see
  /// obs/planner_stats.h). Fields a planner doesn't track stay zero. See
  /// the thread-safety contract above.
  const obs::PlannerStats& planner_stats() const { return planner_stats_; }

  /// The estimator this planner builds plans against, or nullptr if the
  /// planner has none. Used by the serve layer to stamp predicted side
  /// tables (plan/plan_estimates.h) on freshly compiled plans with the same
  /// beliefs the build used. Thread-safety follows the estimator itself
  /// (see the contract above).
  virtual CondProbEstimator* estimator() const { return nullptr; }

 protected:
  /// Builds the plan, counting into `stats` (already Reset to this
  /// planner's name). Implementations touch no instance state; the one
  /// exception, RegretPlanner, commits the regret figures PlannerStats has
  /// no field for under diag_mu_ at the very end of the build.
  virtual Plan BuildPlanImpl(const Query& query,
                             obs::PlannerStats& stats) const = 0;

  /// Guards the most-recent-build diagnostics of this planner and its
  /// subclasses.
  mutable std::mutex diag_mu_;
  mutable obs::PlannerStats planner_stats_;
};

/// Builds the SeqProblem cost callback for predicates evaluated at a
/// subproblem: marginal cost of preds[i]'s attribute given the attributes
/// acquired by the subproblem ranges plus those of already-evaluated
/// predicates.
std::function<double(size_t, uint64_t)> MakeSeqCostFn(
    const Schema& schema, const AcquisitionCostModel& cost_model,
    const RangeVec& ranges, const std::vector<Predicate>& preds);

/// Solves the sequential problem for the undetermined predicates of a
/// conjunctive query at `ranges`, returning the solution plus the leaf node
/// realizing it. If the ranges already determine the conjunct, the leaf is a
/// Verdict and the cost is 0.
struct SequentialLeaf {
  double expected_cost = 0.0;
  std::unique_ptr<PlanNode> leaf;
};
SequentialLeaf SolveSequentialLeaf(const Query& query, const RangeVec& ranges,
                                   CondProbEstimator& estimator,
                                   const AcquisitionCostModel& cost_model,
                                   const SequentialSolver& solver);

/// Wraps a sequential solver as a full planner ("CorrSeq" in the paper's
/// evaluation: OptSeq for small queries, GreedySeq for large ones).
class SequentialPlanner : public Planner {
 public:
  SequentialPlanner(CondProbEstimator& estimator,
                    const AcquisitionCostModel& cost_model,
                    const SequentialSolver& solver, std::string name)
      : estimator_(estimator),
        cost_model_(cost_model),
        solver_(solver),
        name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  CondProbEstimator* estimator() const override { return &estimator_; }

 protected:
  Plan BuildPlanImpl(const Query& query,
                     obs::PlannerStats& stats) const override;

 private:
  CondProbEstimator& estimator_;
  const AcquisitionCostModel& cost_model_;
  const SequentialSolver& solver_;
  std::string name_;
};

}  // namespace caqp

#endif  // CAQP_OPT_PLANNER_H_
