// CalibrationAggregator — predicted-vs-observed plan-quality accounting.
//
// The planner half of the system believes things (plan/plan_estimates.h:
// per-node reach/pass/cost under the estimator that built the plan); the
// executor half observes things (exec/exec_profile.h: per-node
// eval/pass/unknown counters and realized acquisition cost). This module
// joins the two per PlanKey (core/plan_key.h) — the same identity the plan
// caches key on and spans carry — and folds the join into a
// CalibrationReport:
//
//  * per-plan: predicted vs realized mean acquisition cost, and their
//    difference ("regret": positive means the plan runs more expensive than
//    the estimator promised);
//  * per-node: predicted pass probability vs the observed pass fraction;
//  * per-attribute drift scores: |observed pass rate − predicted pass rate|
//    over all predicate evaluations of that attribute, the signal that
//    tells the serve layer "the distribution this estimator was trained on
//    has moved" (see serve::DriftPolicy).
//
// Sharding mirrors ShardedRegistry: each worker owns a shard, so hot-path
// counter updates (inside ExecutionProfile) are relaxed atomics on
// worker-local cache lines with no cross-worker contention. The per-shard
// mutex guards only the entry map — taken once per request to resolve the
// profile, and by Snapshot(); it is uncontended in steady state. Snapshot()
// may run concurrently with writers: it reads relaxed counters and
// tolerates momentarily inconsistent values (report math saturates; the
// TSan suite exercises snapshot-during-update).
//
// Windowing: reports are cumulative. DeltaSince(prev) subtracts a previous
// cumulative report (saturating, keyed by plan/attr identity) to get a
// per-window view — what DriftPolicy evaluates per snapshot interval.

#ifndef CAQP_OBS_CALIBRATION_H_
#define CAQP_OBS_CALIBRATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan_key.h"
#include "core/types.h"
#include "exec/exec_profile.h"
#include "plan/compiled_plan.h"
#include "plan/plan_estimates.h"

namespace caqp {

class Schema;  // core/schema.h; only names are read here.

namespace obs {

/// One plan node's predicted-vs-observed row.
struct NodeCalibration {
  uint32_t node = 0;
  PlanNode::Kind kind = PlanNode::Kind::kVerdict;
  AttrId attr = kInvalidAttr;  ///< split attribute; kInvalidAttr for leaves
  double predicted_reach = 0.0;
  double predicted_pass = -1.0;  ///< -1: no estimate (see plan_estimates.h)
  uint64_t evals = 0;
  uint64_t passes = 0;
  uint64_t unknowns = 0;

  /// True once the node has at least one defined (non-unknown) evaluation.
  bool has_observation() const { return evals > unknowns; }
  /// Observed pass fraction over defined evaluations, clamped to [0, 1]
  /// (relaxed snapshots can momentarily disagree between counters).
  double observed_pass() const {
    if (!has_observation()) return 0.0;
    return std::min(1.0, static_cast<double>(passes) /
                             static_cast<double>(evals - unknowns));
  }
};

/// Predicted-vs-observed summary for one plan.
struct PlanCalibration {
  PlanKey key;
  uint64_t executions = 0;
  uint64_t unknown_executions = 0;
  uint64_t acquisitions = 0;
  /// Whether the plan carried PlanEstimates (deserialized or hand-compiled
  /// plans may not); predicted_* fields are meaningless without it.
  bool has_estimates = false;
  double predicted_cost = 0.0;  ///< expected acquisition cost per execution
  double realized_cost = 0.0;   ///< total over all executions
  /// Interval cost promise for plans built under an uncertainty box
  /// (opt::StampEstimatesWithBox): the robust plan promised a per-execution
  /// cost in [predicted_cost_lo, predicted_cost_hi]; a realized mean cost
  /// outside the interval means the box itself was wrong.
  bool has_cost_bounds = false;
  double predicted_cost_lo = 0.0;
  double predicted_cost_hi = 0.0;
  std::vector<NodeCalibration> nodes;

  double realized_mean_cost() const {
    return executions > 0 ? realized_cost / static_cast<double>(executions)
                          : 0.0;
  }
  /// Realized minus predicted mean cost; positive: plan runs hotter than
  /// promised. 0 until the plan has executions and estimates.
  double regret() const {
    return (executions > 0 && has_estimates)
               ? realized_mean_cost() - predicted_cost
               : 0.0;
  }
};

/// Per-attribute drift row: all predicate evaluations of `attr` across all
/// plans, observed vs what the producing estimators predicted.
struct AttrCalibration {
  AttrId attr = kInvalidAttr;
  uint64_t evals = 0;
  uint64_t passes = 0;
  double predicted_evals = 0.0;   ///< Σ executions × attr_eval_rate
  double predicted_passes = 0.0;  ///< Σ executions × attr_pass_rate

  double observed_pass_rate() const {
    return evals > 0 ? std::min(1.0, static_cast<double>(passes) /
                                         static_cast<double>(evals))
                     : 0.0;
  }
  double predicted_pass_rate() const {
    return predicted_evals > 0 ? std::min(1.0, predicted_passes /
                                                   predicted_evals)
                               : 0.0;
  }
  /// Signed calibration gap: observed minus predicted pass rate, in
  /// [-1, 1]. Positive: the predicate passes more often than predicted.
  /// 0 until both sides have data. The sign is what turns a drift score
  /// into a *directional* uncertainty interval
  /// (opt::UncertaintyBox::FromCalibration).
  double signed_drift() const {
    if (evals == 0 || predicted_evals <= 0) return 0.0;
    return observed_pass_rate() - predicted_pass_rate();
  }
  /// Drift score: |observed − predicted| pass rate in [0, 1]. 0 until both
  /// sides have data (zero-eval attributes and estimate-less plans never
  /// report drift).
  double drift() const {
    const double d = signed_drift();
    return d < 0 ? -d : d;
  }
};

struct CalibrationReport {
  std::vector<PlanCalibration> plans;
  std::vector<AttrCalibration> attrs;  ///< only attributes with any data
  uint64_t executions = 0;
  double realized_cost = 0.0;
  /// Σ over plans of executions × per-execution predicted cost (plans
  /// without estimates contribute their executions but no predicted cost).
  double predicted_cost = 0.0;

  /// Aggregate regret per execution across all calibrated plans.
  double regret() const;
  /// Largest per-attribute drift() among attributes with at least
  /// `min_evals` observed evaluations this report.
  double MaxDrift(uint64_t min_evals = 1) const;
  /// This report minus `prev` (both cumulative), saturating at zero —
  /// the per-window view DriftPolicy consumes. Plans/attrs with no
  /// activity in the window are dropped.
  CalibrationReport DeltaSince(const CalibrationReport& prev) const;
};

/// Serializes a report as JSON (schema adds attribute names when non-null):
///   {"executions":N,"realized_cost":...,"predicted_cost":...,"regret":...,
///    "max_drift":...,
///    "plans":[{"query_sig","estimator_version","planner_fingerprint",
///              "executions","unknown_executions","acquisitions",
///              "predicted_cost","predicted_cost_lo"?,"predicted_cost_hi"?,
///              "realized_mean_cost","regret",
///              "nodes":[{"node","kind","attr","predicted_reach",
///                        "predicted_pass","evals","passes","unknowns",
///                        "observed_pass"},...]},...],
///    "attrs":[{"attr","name"?,"evals","passes","predicted_evals",
///              "predicted_passes","observed_pass_rate",
///              "predicted_pass_rate","drift"},...]}
std::string CalibrationReportToJson(const CalibrationReport& report,
                                    const Schema* schema = nullptr);

class CalibrationAggregator {
 public:
  explicit CalibrationAggregator(size_t num_shards);

  CalibrationAggregator(const CalibrationAggregator&) = delete;
  CalibrationAggregator& operator=(const CalibrationAggregator&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// The profile for `key` in `worker`'s shard, creating it (sized to the
  /// plan's node count, holding a reference to the plan for report time) on
  /// first sight. The returned pointer is stable for the aggregator's
  /// lifetime; the caller feeds it to the executor. One short worker-local
  /// mutex acquisition per call.
  ///
  /// Returns nullptr — execute unprofiled — when the key's profile was
  /// sized for a plan with a different node count: a racing builder
  /// produced a structurally different plan for the same key
  /// (nondeterministic planner), and its per-node rows would misalign.
  ExecutionProfile* Profile(size_t worker, const PlanKey& key,
                            std::shared_ptr<const CompiledPlan> plan);

  /// Cumulative predicted-vs-observed report merged across shards. Safe
  /// concurrent with writers (see header comment).
  CalibrationReport Snapshot() const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    ExecutionProfile profile;
    Entry(std::shared_ptr<const CompiledPlan> p, size_t num_nodes)
        : plan(std::move(p)), profile(num_nodes) {}
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<PlanKey, std::unique_ptr<Entry>, PlanKeyHash> entries;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_CALIBRATION_H_
