// ExecutionProfile: the observed half of plan-quality calibration.
//
// One profile instance accompanies one compiled plan (per worker, owned by
// obs::CalibrationAggregator) and accumulates, across every tuple executed
// under that plan:
//
//  * per-node counters — evals (node reached), passes (its test succeeded),
//    unknowns (acquisition failed at the node / three-valued Unknown),
//    indexed by the flat CompiledPlan node index (the preorder index
//    PlanEstimates uses too);
//  * per-attribute predicate counters — evaluations and passes of each
//    attribute's predicates, the observed twin of
//    PlanEstimates::attr_eval_rate / attr_pass_rate;
//  * per-execution totals — executions, unknown verdicts, acquisitions, and
//    realized acquisition cost.
//
// It counts predicate evaluations, not individual acquisitions: which
// attribute was acquired, with what value and marginal cost, reaches only a
// TraceSink (obs/trace.h; AttributeProfile aggregates it per attribute).
//
// All counters are relaxed atomics: single-writer in the serve layer (each
// worker owns its shard) but safe under concurrent snapshotting, and cheap
// enough to sit on the instrumented executor path. Consumers read through
// Snapshot(), which tolerates momentarily inconsistent values (e.g. passes
// observed before the matching eval); report math saturates instead of
// asserting.
//
// The uninstrumented executor path never touches a profile — profiling is
// only reachable through the obs-enabled dispatch (see exec/executor.h), so
// the disabled path stays bit-identical and under the bench_obs_overhead
// bar.

#ifndef CAQP_EXEC_EXEC_PROFILE_H_
#define CAQP_EXEC_EXEC_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace caqp {

/// Plain-data snapshot of one profile (or a merge of several).
struct ExecutionProfileSnapshot {
  struct NodeCounts {
    uint64_t evals = 0;
    uint64_t passes = 0;
    uint64_t unknowns = 0;
  };

  std::vector<NodeCounts> nodes;
  std::array<uint64_t, 64> attr_evals{};
  std::array<uint64_t, 64> attr_passes{};
  uint64_t executions = 0;
  uint64_t unknown_executions = 0;
  uint64_t acquisitions = 0;
  double realized_cost = 0.0;

  /// Element-wise sum; grows `nodes` to cover the larger profile.
  void MergeFrom(const ExecutionProfileSnapshot& other);
};

class ExecutionProfile {
 public:
  explicit ExecutionProfile(size_t num_nodes) : nodes_(num_nodes) {}

  ExecutionProfile(const ExecutionProfile&) = delete;
  ExecutionProfile& operator=(const ExecutionProfile&) = delete;

  // --- executor hooks (relaxed; hot path) ---

  void NodeEval(uint32_t node) {
    nodes_[node].evals.fetch_add(1, std::memory_order_relaxed);
  }
  void NodePass(uint32_t node) {
    nodes_[node].passes.fetch_add(1, std::memory_order_relaxed);
  }
  void NodeUnknown(uint32_t node) {
    nodes_[node].unknowns.fetch_add(1, std::memory_order_relaxed);
  }
  /// One predicate evaluation of `attr` with outcome `pass`.
  void PredEval(AttrId attr, bool pass) {
    attr_evals_[attr].fetch_add(1, std::memory_order_relaxed);
    if (pass) attr_passes_[attr].fetch_add(1, std::memory_order_relaxed);
  }
  /// Per-execution totals, called once per tuple as it finishes.
  void EndExecution(double cost, int acquisitions, bool unknown) {
    executions_.fetch_add(1, std::memory_order_relaxed);
    if (unknown) unknown_executions_.fetch_add(1, std::memory_order_relaxed);
    acquisitions_.fetch_add(static_cast<uint64_t>(acquisitions),
                            std::memory_order_relaxed);
    realized_cost_.fetch_add(cost, std::memory_order_relaxed);
  }

  // --- bulk hooks (columnar batch executor; one call per node per chunk) ---

  /// `count` tuples reached `node` (== count NodeEval calls).
  void NodeEvalN(uint32_t node, uint64_t count) {
    nodes_[node].evals.fetch_add(count, std::memory_order_relaxed);
  }
  /// `count` tuples passed `node`'s test.
  void NodePassN(uint32_t node, uint64_t count) {
    nodes_[node].passes.fetch_add(count, std::memory_order_relaxed);
  }
  /// `evals` evaluations of `attr`'s predicate, of which `passes` passed.
  void PredEvalN(AttrId attr, uint64_t evals, uint64_t passes) {
    attr_evals_[attr].fetch_add(evals, std::memory_order_relaxed);
    attr_passes_[attr].fetch_add(passes, std::memory_order_relaxed);
  }
  /// Batch-total twin of per-tuple EndExecution: `executions` tuples
  /// finished with `acquisitions` total acquisitions, `cost` total realized
  /// cost, and `unknown` Unknown verdicts (only fault mode has any). Call
  /// once per Execute() with the whole batch's totals so realized_cost adds
  /// the same row-order sum the per-tuple path accumulates.
  void EndBatch(double cost, uint64_t acquisitions, uint64_t executions,
                uint64_t unknown = 0) {
    executions_.fetch_add(executions, std::memory_order_relaxed);
    if (unknown != 0) {
      unknown_executions_.fetch_add(unknown, std::memory_order_relaxed);
    }
    acquisitions_.fetch_add(acquisitions, std::memory_order_relaxed);
    realized_cost_.fetch_add(cost, std::memory_order_relaxed);
  }

  size_t num_nodes() const { return nodes_.size(); }

  /// Relaxed point-in-time copy; safe concurrent with writers.
  ExecutionProfileSnapshot Snapshot() const;

 private:
  struct NodeCounters {
    std::atomic<uint64_t> evals{0};
    std::atomic<uint64_t> passes{0};
    std::atomic<uint64_t> unknowns{0};
  };

  std::vector<NodeCounters> nodes_;
  std::array<std::atomic<uint64_t>, 64> attr_evals_{};
  std::array<std::atomic<uint64_t>, 64> attr_passes_{};
  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> unknown_executions_{0};
  std::atomic<uint64_t> acquisitions_{0};
  std::atomic<double> realized_cost_{0.0};
};

}  // namespace caqp

#endif  // CAQP_EXEC_EXEC_PROFILE_H_
