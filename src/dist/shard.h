// ExecutorShard: one partition's in-process query agent.
//
// A shard owns a disjoint slice of the dataset rows (its "motes"): it copies
// their columns into a shard-local Dataset once, at construction, and every
// request scans that copy, local rows 0..n-1. Consecutive rows take the
// columnar executor's AVX-512 masked engine where the CPU has one, whatever
// the partitioning. The shard keeps the rows' global ids only to write
// verdicts back in dataset order and to key its fault draws. The copies
// cost one extra copy of the dataset across all shards.
//
// Each shard also owns a single worker thread (serve::ThreadPool of size 1 —
// requests within a shard are serialized, like a mote network behind one
// radio), and a per-shard plan cache of 64 plans. The coordinator ships
// plans as v0xCA wire bytes — exactly what a basestation radios to motes —
// and the shard decodes them once per PlanKey (core/plan_key.h), caching
// the CompiledPlan; the cached path never touches the bytes again.
//
// The reply's partial ExecutionResult travels through the result wire format
// (exec/result_serde.h) even in-process, so the coordinator exercises — and
// validates against — the same encoding a remote shard would send: a corrupt
// reply is handled like a lost shard, never merged.
//
// Per-row verdicts do not travel in the reply. The request carries the
// query's verdict buffer (one Truth per dataset row), and a shard that
// executes writes its own rows' verdicts into it, from its worker thread,
// before it fulfils the reply future; the reply carries only the counts.
// Shards own disjoint rows, so their writes never overlap. The coordinator
// reads a shard's rows only after it has received that shard's reply (the
// future hand-off orders the writes before the read), and a shard it stops
// waiting for keeps the buffer alive through its own reference until it
// finishes.
//
// Fault surface for tests and the --shard-fault-profile flag:
//  * Kill()/kill_after — the shard answers kShardUnavailable (a crashed
//    executor process);
//  * delay_seconds — the shard sleeps before executing (a straggler);
//  * acquisition_faults — the row-level failure model of fault/fault.h:
//    faults keyed by (seed, global row id, attribute, attempt), so all
//    shards share one fault model and a row's outcome does not depend on
//    the partitioning. The shard draws its rows' attempt-0 outcomes once,
//    in its constructor (a FaultRealization positioned over its local rows
//    and keyed by their global ids: one bit per row and attribute), and
//    passes them on every request: columns are read at the local row, and
//    every fault draw is made at the global id. It stays on the columnar
//    path in fault mode (exec/batch_executor.h): rows clean on every
//    attribute a plan can acquire run the fault-free kernels, and only rows
//    whose acquisition fails finish on the scalar executor.

#ifndef CAQP_DIST_SHARD_H_
#define CAQP_DIST_SHARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "obs/calibration.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "opt/cost_model.h"
#include "serve/plan_cache.h"
#include "serve/thread_pool.h"

namespace caqp::dist {

/// Per-shard fault schedule for the `--shard-fault-profile` mini-language:
/// comma-separated directives
///   kill@<shard>[=<after_requests>]   answer kShardUnavailable from the
///                                     given request count on (default 0);
///   delay@<shard>=<millis>            sleep that long before each request.
struct ShardFaultSpec {
  struct Entry {
    size_t shard = 0;
    int64_t kill_after = -1;  ///< requests served before dying; -1 = never
    double delay_seconds = 0.0;
  };
  std::vector<Entry> entries;

  bool any() const { return !entries.empty(); }
  /// The entry for `shard`, or nullptr.
  const Entry* FindEntry(size_t shard) const;

  static Result<ShardFaultSpec> Parse(const std::string& text);
  std::string ToString() const;
};

/// One scatter request: the plan identity, the shared wire bytes, and the
/// query's verdict buffer.
struct ShardRequest {
  PlanKey key;
  std::shared_ptr<const std::vector<uint8_t>> plan_bytes;
  /// One Truth per dataset row, in dataset row order, shared by every shard
  /// of the query. A shard that executes writes exactly its own rows, before
  /// its reply is fulfilled; a shard that answers with an error writes
  /// nothing (see the file comment).
  std::shared_ptr<std::vector<Truth>> verdicts;
};

/// One shard's reply.
struct ShardReply {
  Status status;  ///< kOk, kShardUnavailable, or a plan-decode error
  /// SerializeExecutionResult(partial over this shard's rows): the v0xE5
  /// counts only, never verdicts or trace context. Empty unless status is
  /// OK.
  std::vector<uint8_t> result_bytes;
  /// Verdicts this shard wrote into the request's buffer, and how many of
  /// them are kTrue and kUnknown. All zero unless status is OK.
  size_t rows_written = 0;
  size_t matches = 0;
  size_t unknown_rows = 0;
  bool plan_cache_hit = false;
  double exec_seconds = 0.0;  ///< shard-side handling time (incl. delay)
};

class ExecutorShard {
 public:
  struct Options {
    DegradationPolicy row_policy{};
    /// Row-level acquisition faults, keyed by global row id (no per-shard
    /// streams: every partitioning sees the same per-row faults).
    FaultSpec acquisition_faults{};
    int64_t kill_after = -1;
    double delay_seconds = 0.0;
    /// Per-shard observability (owned by the coordinator). All optional.
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceRecorder* tracer = nullptr;
    size_t trace_worker = 0;  ///< worker slot in `tracer` (shard id + 1)
    obs::CalibrationAggregator* calibration = nullptr;
    size_t calibration_shard = 0;
  };

  /// `rows` is this shard's partition of `data`, as dataset row ids. The
  /// shard copies those rows' columns here and keeps no reference to
  /// `data`, which may die first. `cost_model` must outlive the shard.
  ExecutorShard(size_t shard_id, const Dataset& data, std::vector<RowId> rows,
                const AcquisitionCostModel& cost_model, Options options);

  ExecutorShard(const ExecutorShard&) = delete;
  ExecutorShard& operator=(const ExecutorShard&) = delete;

  /// Enqueues the request on the shard thread. The future is always
  /// fulfilled (a dead shard replies kShardUnavailable promptly).
  ///
  /// `parent` is the coordinator-side trace context: trace_id names the
  /// request trace and span_id the coordinator span (the scatter span) the
  /// shard's own spans should hang under. A traced shard opens its
  /// RequestScope with it, so every span it records into the shared
  /// TraceRecorder joins the request trace; the reply carries no trace
  /// context.
  std::future<ShardReply> Submit(ShardRequest request,
                                 obs::SpanContext parent);

  size_t shard_id() const { return shard_id_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<RowId>& rows() const { return rows_; }

  /// Test hooks / fault-profile surface: a killed shard keeps draining its
  /// queue but answers every request kShardUnavailable until Revive().
  void Kill() { dead_.store(true, std::memory_order_release); }
  void Revive() {
    dead_.store(false, std::memory_order_release);
    killed_by_schedule_.store(false, std::memory_order_release);
  }
  bool alive() const { return !dead_.load(std::memory_order_acquire); }
  /// Test hook: the next request that executes writes its verdicts, then
  /// replies with result bytes the coordinator's decoder rejects.
  void CorruptNextReply() {
    corrupt_next_.store(true, std::memory_order_release);
  }

  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Eagerly drops the shard's cached plans (coordinator invalidation).
  /// Version-bumped keys would age out of the LRU anyway.
  void InvalidatePlans() { plan_cache_.InvalidateAll(); }

 private:
  ShardReply Handle(const ShardRequest& request, obs::SpanContext parent);

  /// Metric references resolved once at construction (registry lookups take
  /// a mutex; requests should not).
  struct MetricRefs {
    obs::Counter* requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* plan_decodes = nullptr;
    obs::Counter* plan_rejects = nullptr;
    obs::Counter* refused = nullptr;
    obs::Histogram* exec_seconds = nullptr;
  };

  const size_t shard_id_;
  /// The partition's global row ids: local row j is dataset row rows_[j].
  /// Used only to write verdicts back in dataset order, and as the fault
  /// realization's keys.
  const std::vector<RowId> rows_;
  const size_t dataset_rows_;  ///< rows in the whole dataset
  /// This shard's rows, copied once at construction: the columns every
  /// request scans.
  const Dataset local_;
  /// 0..n-1: the span every request executes over local_.
  const std::vector<RowId> local_rows_;
  const AcquisitionCostModel& cost_model_;
  const Options options_;

  MetricRefs m_;
  serve::ShardedPlanCache plan_cache_;
  /// The attempt-0 fault realization of local_rows_, keyed by rows_, built
  /// once at construction and passed to every request's Execute; null
  /// without faults.
  std::unique_ptr<const FaultRealization> faults_;
  std::atomic<bool> dead_{false};
  std::atomic<bool> killed_by_schedule_{false};
  std::atomic<bool> corrupt_next_{false};
  std::atomic<uint64_t> served_{0};
  /// Shard-local verdicts of the last execution; worker thread only.
  std::vector<uint8_t> verdict_scratch_;

  // Last: the worker thread must stop before the members above die. The
  // worker spins briefly when idle (serve/thread_pool.h), so the next
  // scatter finds it still on its CPU.
  serve::ThreadPool pool_{1, std::chrono::microseconds(200)};
};

}  // namespace caqp::dist

#endif  // CAQP_DIST_SHARD_H_
