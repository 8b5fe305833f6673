// PlannerStats: what a planner did while building its last plan — the one
// diagnostics record of every build. Planner::BuildPlan hands each build a
// fresh record, the planner counts straight into it (fields irrelevant to a
// given planner stay zero), and BuildPlan commits it when the build ends;
// tests, harnesses and JSON exports read it through
// Planner::planner_stats() without knowing the concrete planner type.
// Only RegretPlanner keeps a record of its own, for the regret figures this
// struct has no field for.

#ifndef CAQP_OBS_PLANNER_STATS_H_
#define CAQP_OBS_PLANNER_STATS_H_

#include <cstdint>
#include <string>

namespace caqp {
namespace obs {

struct PlannerStats {
  std::string planner;  ///< Planner::Name() at BuildPlan time

  // Exhaustive DP (paper Figure 5).
  uint64_t memo_hits = 0;        ///< subproblems answered from the cache
  uint64_t memo_misses = 0;      ///< distinct subproblems solved
  uint64_t bound_prunes = 0;     ///< candidates skipped/abandoned via bound
  uint64_t candidates_tried = 0; ///< (attribute, split point) pairs costed

  // GreedyPlan (paper Figures 6-7).
  uint64_t split_searches = 0;     ///< GREEDYSPLIT invocations
  uint64_t splits_considered = 0;  ///< candidate splits costed
  uint64_t splits_taken = 0;       ///< splits placed in the final plan
  uint64_t queue_high_water = 0;   ///< max expansion-queue length observed
  uint64_t expansions_skipped = 0; ///< queue pops rejected (size penalty /
                                   ///< byte bound)
  double benefit_first = 0.0;      ///< gain of the first adopted expansion
  double benefit_last = 0.0;       ///< gain of the last adopted expansion
  double benefit_total = 0.0;      ///< summed adopted expansion gains

  // Sequential machinery (shared by all planners).
  uint64_t seq_solves = 0;  ///< base-plan solver invocations

  /// The planner's own expected-cost estimate for the built plan
  /// (Equation (3) under the training estimator), when it computes one.
  double expected_cost = 0.0;

  void Reset(const std::string& name) {
    *this = PlannerStats{};
    planner = name;
  }
};

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_PLANNER_STATS_H_
