// Coordinator — the scatter-gather front of the distributed serving tier.
//
// One Coordinator owns a dataset partitioned across N in-process
// ExecutorShards (dist/shard.h) and answers distributed queries: evaluate
// the query's WHERE clause over *every* row, returning per-row verdicts and
// one merged ExecutionResult. The flow per query:
//
//   Execute -> serve::PlanStore key + counted lookup (the plan path
//              QueryService uses: plan cache, single flight, version)
//           -> miss: PlanStore::BuildOnce over the coordinator's one
//              builder + serve::CompileForServe, then SerializePlan to
//              v0xCA bytes (what a basestation would radio)
//           -> scatter: Submit(key, bytes, verdict buffer) to every attempted
//              shard; each executing shard writes its rows' verdicts into
//              the shared buffer itself
//           -> gather: per-shard deadline wait; validate each reply and sum
//              its match and Unknown counts. Dead/slow/corrupt shards degrade
//              their partition to Unknown rows (never a failed query)
//           -> merge: verdict3-aware MergeExecutionResults fold; the buffer
//              becomes Response::row_verdicts
//
// When every attempted shard answers, the coordinator's per-query work is
// O(shards): apart from allocating the Unknown-filled buffer, no step
// touches a row. Per-row work is left to degraded queries:
// a rejected reply's rows are reset to Unknown after its shard wrote them,
// and while a straggler is still out (it may yet write its rows), the
// response gets a fresh copy of the merged shards' rows instead of the
// shared buffer.
//
// Shard-aware degradation: each shard has a ShardHealth state machine
// (dist/health.h). Failures (error reply, timeout, undecodable result
// bytes) degrade it; enough consecutive failures mark it dead, after which
// it is skipped — its rows go straight to Unknown without burning the
// deadline — except for periodic probe queries that let a revived shard
// earn its way back.
//
// Observability: metric shard 0 is the coordinator (dist.queries,
// dist.degraded_queries, dist.stragglers, dist.probes, the query-latency
// histogram); metric shard i+1 belongs to executor shard i — the same slot
// layout the TraceRecorder uses, so flight-recorder incidents carry the
// shard id in Incident::worker. Calibration aggregates across shards: each
// shard feeds per-node observed counters into its own
// CalibrationAggregator shard, and CalibrationSnapshot() merges them.

#ifndef CAQP_DIST_COORDINATOR_H_
#define CAQP_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/query.h"
#include "dist/health.h"
#include "dist/partition.h"
#include "dist/shard.h"
#include "exec/executor.h"
#include "obs/calibration.h"
#include "obs/histogram.h"
#include "obs/sharded_registry.h"
#include "obs/span.h"
#include "opt/cost_model.h"
#include "serve/plan_store.h"

namespace caqp::dist {

/// One shard's row in a DistReport.
struct ShardReportRow {
  size_t shard = 0;
  ShardHealth::State state = ShardHealth::State::kHealthy;
  size_t rows = 0;
  uint64_t requests = 0;   ///< requests the shard thread handled
  uint64_t failures = 0;   ///< coordinator-observed failures (incl. timeouts)
  uint64_t timeouts = 0;   ///< gather waits that hit the per-shard deadline
  uint64_t cache_hits = 0;
  obs::HistogramSnapshot exec_latency;  ///< shard-side handling seconds
};

/// Aggregated view of the coordinator's query stream.
struct DistReport {
  uint64_t queries = 0;
  uint64_t degraded_queries = 0;  ///< >= 1 shard missing from the merge
  uint64_t stragglers = 0;        ///< shard waits that timed out
  uint64_t probes = 0;            ///< queries sent to dead shards
  uint64_t planned = 0;
  uint64_t cache_hits = 0;        ///< coordinator plan-cache hits
  obs::HistogramSnapshot query_latency;
  std::vector<ShardReportRow> shards;
};

std::string DistReportToJson(const DistReport& report);

class Coordinator {
 public:
  struct Options {
    PartitionSpec partition;
    size_t plan_cache_capacity = 1024;
    /// Gather wait per query, shared across shards (the clock starts at
    /// scatter; each shard future gets the remaining budget). <= 0 waits
    /// forever — a hung shard then hangs the query, so serving setups
    /// should always set one.
    double shard_deadline_seconds = 0.0;
    /// Row-level degradation inside shards (PR 3 semantics).
    DegradationPolicy row_policy{};
    /// Row-level acquisition faults, applied in every shard. Outcomes are
    /// keyed by (seed, global row id, attribute, attempt) — no per-shard
    /// streams — so merged results do not depend on the partitioning.
    FaultSpec acquisition_faults{};
    /// Shard-level fault schedule (kill/delay), usually from
    /// --shard-fault-profile.
    ShardFaultSpec shard_faults{};
    ShardHealth::Policy health{};
    bool enable_tracing = false;
    /// TraceRecorder sizing — one buffer + one flight ring (TraceRecorder's
    /// default 128 entries) per worker slot (slot 0 = coordinator, i + 1 =
    /// shard i). A SpanEvent is 72 bytes, so per slot this budgets roughly
    /// (max_span_events_per_worker + 128) * 72 bytes; incidents add
    /// 128 * 72 bytes each, capped at the default 8192.
    size_t max_span_events_per_worker = size_t{1} << 15;
    bool enable_calibration = false;
  };

  /// Outcome of one distributed query. A degraded query (dead shard,
  /// straggler) still reports kOk — missing partitions surface as Unknown
  /// row verdicts and in shards_degraded/shard_status, mirroring the PR 3
  /// contract that infrastructure failure degrades answers, not requests.
  struct Response {
    Status status;  ///< kOk unless the coordinator itself failed to plan
    uint64_t query_sig = 0;
    uint64_t estimator_version = 0;
    uint64_t trace_id = 0;
    bool cache_hit = false;
    bool planned = false;
    std::shared_ptr<const CompiledPlan> plan;
    /// Merged partials: existence verdict over all rows, summed costs.
    ExecutionResult merged;
    /// Per-row verdicts in dataset row order. Rows of degraded shards are
    /// kUnknown.
    std::vector<Truth> row_verdicts;
    size_t matches = 0;       ///< rows with a defined kTrue verdict
    size_t unknown_rows = 0;  ///< rows whose verdict degraded to kUnknown
    size_t shards_total = 0;
    size_t shards_ok = 0;
    size_t shards_degraded = 0;  ///< failed or timed out this query
    size_t shards_skipped = 0;   ///< dead and not probed this query
    /// Per-shard outcome for this query (kOk / kShardUnavailable /
    /// kDeadlineExceeded / decode errors).
    std::vector<Status> shard_status;
    double latency_seconds = 0.0;

    bool ok() const { return status.ok(); }
    bool degraded() const { return shards_ok < shards_total; }
  };

  /// `data` and `cost_model` must outlive the coordinator. The factory is
  /// invoked once; the coordinator serializes planning through a single
  /// builder (plan fan-out is the scalable part of this tier, planning is
  /// already deduplicated by the PlanStore's cache and single flight).
  Coordinator(const Dataset& data, const AcquisitionCostModel& cost_model,
              const serve::PlanBuilderFactory& factory, Options options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Evaluates `query` over every row. Safe to call from multiple client
  /// threads concurrently.
  Response Execute(const Query& query);

  /// Estimator refresh: bumps the version component of cache keys and drops
  /// coordinator + shard plan caches.
  void InvalidateCache();

  uint64_t estimator_version() const { return store_.version(); }

  size_t num_shards() const { return shards_.size(); }
  size_t num_rows() const { return data_.num_rows(); }
  const std::vector<RowId>& shard_rows(size_t shard) const {
    return shards_[shard]->rows();
  }
  ShardHealth::State shard_state(size_t shard) const;

  /// Test hooks: see ExecutorShard::Kill/Revive. ReviveShard also resets
  /// the health machine's view after enough successes (it does not force
  /// kHealthy — the shard earns it back through probes).
  void KillShard(size_t shard) { shards_[shard]->Kill(); }
  void ReviveShard(size_t shard) { shards_[shard]->Revive(); }
  /// Test hook: see ExecutorShard::CorruptNextReply.
  void CorruptNextShardReply(size_t shard) {
    shards_[shard]->CorruptNextReply();
  }

  DistReport Report() const;
  const serve::ShardedPlanCache& cache() const { return store_.cache(); }
  const obs::ShardedRegistry& metrics() const { return metrics_; }
  const obs::TraceRecorder& trace_recorder() const { return tracer_; }

  /// Calibration merged across every shard's aggregator shard. Empty
  /// unless Options::enable_calibration.
  obs::CalibrationReport CalibrationSnapshot() const;

 private:
  struct ShardSlot {
    mutable std::mutex mu;
    ShardHealth health;  // guarded by mu
    explicit ShardSlot(ShardHealth::Policy policy) : health(policy) {}
  };

  /// Coordinator-side metric refs (shard 0 of metrics_).
  struct CoordinatorMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* degraded_queries = nullptr;
    obs::Counter* stragglers = nullptr;
    obs::Counter* probes = nullptr;
    obs::Counter* planned = nullptr;
    obs::Counter* cache_hits = nullptr;
    /// Replies whose echoed trace context names a different trace — the
    /// scatter/gather pairing went wrong somewhere; the reply is degraded
    /// like corruption.
    obs::Counter* trace_mismatches = nullptr;
    obs::Histogram* query_latency = nullptr;
  };

  const Dataset& data_;
  const AcquisitionCostModel& cost_model_;
  Options options_;

  // Observability first: shards hold pointers into these, so they must
  // outlive (be destroyed after) the shard worker threads below.
  obs::ShardedRegistry metrics_;  // shard 0 = coordinator, i+1 = shard i
  obs::TraceRecorder tracer_;    // same slot layout
  std::unique_ptr<obs::CalibrationAggregator> calibration_;
  CoordinatorMetrics cm_;
  std::vector<obs::Counter*> shard_failures_;  // in metrics_.shard(i + 1)
  std::vector<obs::Counter*> shard_timeouts_;

  std::unique_ptr<serve::PlanBuilder> builder_;
  std::mutex builder_mu_;  // serializes Build + CompileForServe
  serve::PlanStore store_;
  std::atomic<uint64_t> query_seq_{0};

  std::vector<std::unique_ptr<ShardSlot>> slots_;
  // Last: shard destructors drain their worker threads while everything
  // they reference is still alive.
  std::vector<std::unique_ptr<ExecutorShard>> shards_;
};

}  // namespace caqp::dist

#endif  // CAQP_DIST_COORDINATOR_H_
