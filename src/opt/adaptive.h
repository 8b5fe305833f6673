// Adaptive replanning over data streams (paper Section 7, "Queries over
// data streams"): probabilities are maintained over a sliding window of
// recent tuples; periodically the planner re-estimates the current plan's
// expected cost and rebuilds the conditional plan when the distribution has
// drifted enough for a new plan to beat it by a relative margin.

#ifndef CAQP_OPT_ADAPTIVE_H_
#define CAQP_OPT_ADAPTIVE_H_

#include <deque>
#include <functional>

#include "opt/greedy_plan.h"
#include "plan/compiled_plan.h"

namespace caqp {

class AdaptivePlanner {
 public:
  struct Options {
    /// Tuples kept in the sliding window used to estimate probabilities.
    size_t window_size = 4000;
    /// Re-evaluate the plan after this many new tuples.
    size_t replan_interval = 1000;
    /// Adopt a new plan only if it improves the window-expected cost by this
    /// relative margin (hysteresis against plan thrashing).
    double improvement_threshold = 0.02;
    /// Settings for the GreedyPlanner used at each replan.
    const SplitPointSet* split_points = nullptr;
    const SequentialSolver* seq_solver = nullptr;
    size_t max_splits = 5;
    /// Invoked (on the Observe thread) each time a replan is adopted — i.e.
    /// the window distribution drifted enough that plans built from older
    /// statistics are stale. Serving layers hook cache invalidation here
    /// (serve::QueryService::InvalidateCache()).
    std::function<void()> on_plan_adopted;
  };

  struct Stats {
    size_t tuples_seen = 0;
    size_t replans_considered = 0;
    size_t replans_adopted = 0;
    double total_cost = 0.0;
  };

  AdaptivePlanner(const Schema& schema, const Query& query,
                  const AcquisitionCostModel& cost_model, Options options);

  /// Feeds one tuple: executes the current plan on it (charging acquisition
  /// costs), appends it to the window, and replans on schedule. Returns the
  /// acquisition cost paid for this tuple.
  double Observe(const Tuple& tuple);

  /// Current plan, compiled once per adoption (initially Naive-less: a
  /// sequential scan of the query predicates until the first window fills).
  const CompiledPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }

 private:
  void MaybeReplan();

  Schema schema_;
  Query query_;
  const AcquisitionCostModel& cost_model_;
  Options options_;
  std::deque<Tuple> window_;
  CompiledPlan plan_;
  Stats stats_;
  size_t since_replan_ = 0;
};

}  // namespace caqp

#endif  // CAQP_OPT_ADAPTIVE_H_
