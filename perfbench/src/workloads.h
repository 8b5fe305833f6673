// The four workloads, in two tiers: serve_standing and serve_adhoc drive
// serve::QueryService; dist_scan and dist_faults drive dist::Coordinator.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"
#include "probes.h"

namespace perfbench {

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  MetricSet metrics;
  /// False when the run could not produce numbers (too short for its p99).
  bool measured = true;
};

/// Closed-loop clients of the dist tier. One query already keeps the
/// coordinator and all 4 shard threads busy; more clients on a few shared
/// cores measure the scheduler (with 4, dist_scan throughput moved by 30%
/// of its median from one seed to the next, with 1 by under 5%).
inline constexpr size_t kDistClients = 1;

bool IsServeWorkload(const std::string& name);
bool IsDistWorkload(const std::string& name);

RunResult RunServe(const Args& args);
RunResult RunDist(const Args& args);

/// Traced-run metrics shared by both tiers: planner and estimator figures
/// from the timing wrappers, and the direct-call layer probes over the
/// workload's own plans and rows.
void AddBuildMetrics(BuildStats& stats, uint64_t builds_in_window,
                     MetricSet* out);
void AddProbeMetrics(const Scenario& s, const PlanList& plans,
                     std::span<const caqp::RowId> rows,
                     const std::vector<std::vector<caqp::RowId>>& row_sets,
                     uint64_t seed, MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
