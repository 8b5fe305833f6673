// QueryService: the concurrent multi-query serving front end.
//
// A request is (query, tuple): compile-or-fetch a conditional plan for the
// query, execute it over the tuple's acquisition source, and return the
// verdict plus acquisition accounting. The paper's planners are expensive
// relative to plan execution (milliseconds of sampling/DP vs. microseconds
// of tree traversal), which is exactly the regime where a serving layer
// amortizes planning across a workload:
//
//   Submit -> PlanStore::Key + Get (plan_store.h, shared with the dist tier)
//          -> hit: ExecutePlan on the calling thread
//          -> miss: worker pool (thread_pool.h) -> PlanStore::BuildOnce
//             with the worker's PlanBuilder -> ExecutePlan on the worker
//
// A hit never waits for a worker: executing a cached plan takes about a
// microsecond, less than handing the request to another thread. Each
// request does exactly one counted cache lookup, in Submit.
//
// Planning state is per worker: the factory supplied at construction is
// invoked once per worker thread, and Build runs only on that worker, so a
// bundle may hold state no other thread touches. Every estimator in
// caqp::prob is immutable after construction, so bundles may equally share
// one estimator or one const Planner (SharedPlannerBuilder) — see the
// thread-safety contract in opt/planner.h.
//
// Invalidation: InvalidateCache() bumps the estimator version (a component
// of every cache key) and eagerly clears the cache. Wire it to the adaptive
// replanner via AdaptivePlanner::Options::on_plan_adopted =
// service.InvalidationHook() so a detected distribution shift immediately
// stops serving stale plans.
//
// Observability (caqp::obs v2): per-request metrics — counts and the
// request-latency histogram behind Report() — are written to per-worker
// shards of an obs::ShardedRegistry, so a worker never touches another
// worker's cache lines. Hits answered on calling threads record
// into one extra "submitter" slot, index num_workers(), of the registry,
// the trace recorder and the calibration aggregator; all three accept
// concurrent writers per slot. With
// Options::enable_tracing, each request also gets a SpanContext threaded
// through queueing, single-flight planning, execution, and dissemination
// (obs/span.h), and degraded requests (kDeadlineExceeded / kUnavailable /
// planner-timeout fallback) dump the worker's flight-recorder ring for
// postmortems. Export both with obs::TraceEventsToJson(trace_recorder()).
//
// Plan-quality calibration: with Options::enable_calibration, freshly
// compiled plans get predicted per-node selectivity/cost side tables
// stamped from the builder's estimator (plan/plan_estimates.h), and every
// execution feeds per-node observed counters into a per-worker
// obs::CalibrationAggregator keyed by the request's PlanKey
// (core/plan_key.h) — the plan-cache key, so calibration rows join exactly
// against cached plans, span events, and flight-recorder incidents.
// CalibrationSnapshot() merges the shards into a report with per-plan
// regret (realized minus predicted cost) and per-attribute drift scores.
// CheckDrift() compares consecutive snapshot windows against
// Options::drift and, when the drift score stays over threshold for K
// windows, bumps the estimator version (InvalidateCache), forcing
// replanning under whatever beliefs the builders now hold.

#ifndef CAQP_SERVE_QUERY_SERVICE_H_
#define CAQP_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "core/schema.h"
#include "exec/executor.h"
#include "obs/calibration.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/sharded_registry.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "opt/cost_model.h"
#include "opt/uncertainty.h"
#include "serve/plan_store.h"
#include "serve/thread_pool.h"

namespace caqp {
namespace serve {

/// When and how calibration drift invalidates the plan cache. Drift is
/// evaluated per snapshot *window*: each CheckDrift() call diffs the
/// cumulative calibration report against the previous call's
/// (CalibrationReport::DeltaSince), takes the window's maximum
/// per-attribute drift score — |observed pass rate − predicted pass rate|
/// over attributes with at least `min_window_evals` evaluations — and
/// fires once the score exceeds `threshold` for `consecutive_windows`
/// windows in a row. Firing calls `on_drift` (with the offending window's
/// report) and then InvalidateCache(), so the next request per query
/// replans under the bumped estimator version.
struct DriftPolicy {
  /// Max per-attribute drift score that a window may reach before it
  /// counts toward the streak. <= 0 disables automatic invalidation
  /// (CheckDrift still reports, never fires).
  double threshold = 0.0;
  /// Consecutive over-threshold windows required before firing. Debounces
  /// one-off noisy windows; 1 fires immediately.
  int consecutive_windows = 2;
  /// Attributes with fewer predicate evaluations than this in the window
  /// are ignored for the drift score (small-sample noise gate).
  uint64_t min_window_evals = 1;
  /// Invoked (on the CheckDrift caller's thread) with the window report
  /// just before InvalidateCache, e.g. to retrain estimators so the
  /// replanned plans actually reflect the new distribution.
  std::function<void(const obs::CalibrationReport&)> on_drift;

  // --- "Widen, don't just invalidate" mode (opt/uncertainty.h) -----------
  /// When true, a firing window additionally converts its per-attribute
  /// *signed* drift into a directional UncertaintyBox
  /// (UncertaintyBox::FromCalibration, scale 1 and cap 1: the interval
  /// spans exactly the observed drift) and merges it into the service's
  /// installed box, so robust builders replan hedged against the move that
  /// was just observed instead of re-trusting the same point estimates.
  /// Once a box is installed, the firing decision itself switches to
  /// *excess* drift — drift beyond what the installed box already covers —
  /// so a widened-and-replanned service does not keep invalidating on the
  /// residual gap it has already hedged (the loop converges in one
  /// invalidation for a one-off shift).
  bool widen_on_drift = false;
  /// Invoked (before on_drift) with the post-merge installed box and the
  /// firing window — the hook that pushes the box to whatever
  /// SharedUncertaintyBox the per-worker robust builders read.
  std::function<void(const opt::UncertaintyBox&,
                     const obs::CalibrationReport&)>
      on_widen;
};

/// What one CheckDrift() call saw and did.
struct DriftStatus {
  /// Calibration delta since the previous CheckDrift() call.
  obs::CalibrationReport window;
  /// Window's max per-attribute drift score (min_window_evals applied).
  double max_drift = 0.0;
  bool over_threshold = false;
  /// Consecutive over-threshold windows ending at this one.
  int streak = 0;
  /// True iff this call invalidated the cache (streak reached the policy's
  /// consecutive_windows). The streak resets to zero after firing.
  bool fired = false;
  /// Widen mode only: window's max drift in excess of the installed box
  /// (== max_drift while no box is installed). This is what the firing
  /// decision compares against the threshold in widen mode.
  double excess_drift = 0.0;
  /// True iff this call widened the installed box (fired in widen mode).
  bool widened = false;
  /// The installed box after this call (post-merge when widened).
  opt::UncertaintyBox box;
};

/// One worker's share of the request stream (its metric shard), so per-shard
/// views stay comparable across the serve and dist tiers. The worker queue
/// itself is shared (one deque feeds all workers — see thread_pool.h), so
/// queue depth is reported at the service level, not per worker.
struct WorkerReport {
  size_t worker = 0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t cache_hits = 0;
  uint64_t planned = 0;
  uint64_t fallbacks = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t planner_timeouts = 0;
  obs::HistogramSnapshot latency;
};

/// Aggregated view of the service's request stream, assembled from the
/// per-worker metric shards (plus the submit-side shed count). Latency
/// percentiles come from the merged obs::Histogram, so they reflect every
/// completed request, not a sample.
struct ServeReport {
  uint64_t requests = 0;  ///< requests answered, hits included (excludes shed)
  uint64_t ok = 0;
  uint64_t cache_hits = 0;
  uint64_t planned = 0;
  uint64_t fallbacks = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t planner_timeouts = 0;
  uint64_t shed = 0;  ///< rejected kUnavailable at Submit
  /// Requests admitted but not completed when the report was taken — the
  /// live queue depth the load shedder compares against max_queue_depth.
  /// Point-in-time.
  uint64_t pending = 0;
  /// Response::latency_seconds of every completed request.
  obs::HistogramSnapshot latency;
  /// Per-worker breakdown of the aggregate counters above; the last entry
  /// (worker == num_workers()) is the submitter slot, the cache hits
  /// answered on calling threads.
  std::vector<WorkerReport> workers;
};

class QueryService {
 public:
  struct Options {
    size_t num_workers = 4;
    /// Total plan-cache entries; 0 disables caching AND single-flight, so
    /// every request plans for itself (the plan-per-query baseline that
    /// bench_serve compares against).
    size_t cache_capacity = 1024;
    /// Deadline applied to requests submitted without an explicit one.
    /// <= 0 means no deadline. A cache miss whose deadline has already
    /// passed when a worker picks it up is answered kDeadlineExceeded
    /// without planning or executing. Cache hits are answered in Submit and
    /// never queue, so no deadline applies to them.
    double default_deadline_seconds = 0.0;
    /// How long a single-flight follower waits for the leader's plan before
    /// degrading to PlanBuilder::BuildFallback. <= 0 waits forever. The
    /// leader is unaffected; its plan still lands in the cache.
    double planner_timeout_seconds = 0.0;
    /// Load shedding: requests submitted while this many are already
    /// pending are answered kUnavailable immediately, without touching the
    /// worker queue. 0 disables shedding.
    size_t max_queue_depth = 0;
    /// Record per-request spans (queue / plan / exec / ...) into
    /// trace_recorder() and flight-recorder dumps for degraded requests.
    /// Off by default: tracing buffers whole-run span events.
    bool enable_tracing = false;
    /// Span-ring entries per worker (see obs/span.h). A SpanEvent is 72
    /// bytes, so with TraceRecorder's default 128-entry flight ring each
    /// worker's tracing footprint is roughly
    /// (max_span_events_per_worker + 128) * 72 bytes, plus up to its
    /// default 8192 retained incidents * 128 * 72 bytes process-wide.
    size_t max_span_events_per_worker = size_t{1} << 15;
    /// Multi-window SLO burn-rate monitoring (obs/slo.h): every completed
    /// request records availability (status OK and a defined verdict) and
    /// latency. A burn firing bumps serve.slo_burns, records an "slo_burn"
    /// flight-recorder incident (when tracing), arms burn shedding, and
    /// then invokes slo.on_burn if set. Burn shedding: for 5 s after a burn
    /// fires, Submit sheds at HALF max_queue_depth — backing off admission
    /// while the error budget is burning instead of waiting for the queue
    /// to saturate (inert when max_queue_depth == 0).
    bool enable_slo = false;
    obs::SloMonitor::Options slo;
    /// Stamp predicted side tables on compiled plans and collect per-node
    /// observed counters into CalibrationSnapshot(). Off by default; when
    /// on, the per-execution counter cost still rides the global
    /// obs::Enabled() switch (obs disabled => counters skipped).
    bool enable_calibration = false;
    /// Automatic drift-triggered invalidation; see DriftPolicy. Only
    /// consulted by CheckDrift(), which the owner must call periodically
    /// (e.g. from a monitor thread) — the request path never checks drift.
    DriftPolicy drift;
  };

  struct Response {
    /// kOk, or why the request was not served: kDeadlineExceeded (deadline
    /// passed before worker pickup) / kUnavailable (load shed). On a
    /// non-OK status, plan is nullptr and exec is default-constructed.
    Status status;
    uint64_t query_sig = 0;
    uint64_t estimator_version = 0;
    /// Request identity in trace_recorder() span events and flight dumps.
    uint64_t trace_id = 0;
    bool cache_hit = false;
    /// True iff this request ran BuildPlan (cache miss + single-flight
    /// leader, or caching disabled).
    bool planned = false;
    /// True iff this request timed out waiting on the planning leader and
    /// was answered from PlanBuilder::BuildFallback instead.
    bool fallback = false;
    std::shared_ptr<const CompiledPlan> plan;
    ExecutionResult exec;
    /// Wall-clock seconds to completion: from worker pickup for a request
    /// a worker answered, from Submit for a cache hit.
    double latency_seconds = 0.0;

    bool ok() const { return status.ok(); }
  };

  /// `schema` and `cost_model` must outlive the service. `factory` is
  /// invoked options.num_workers times, once per worker.
  QueryService(const Schema& schema, const AcquisitionCostModel& cost_model,
               const PlanBuilderFactory& factory, Options options);

  /// Drains in-flight requests, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits one request. A cache hit is executed on the calling thread and
  /// returned as an already-fulfilled future, as is a load-shed request;
  /// a miss resolves on a worker thread. The query need not be
  /// canonicalized; the tuple must be valid for the schema.
  /// `deadline_seconds` is relative to submission: misses not picked up by
  /// a worker within it are answered kDeadlineExceeded. Negative uses
  /// Options::default_deadline_seconds; 0 means no deadline.
  std::future<Response> Submit(Query query, Tuple tuple,
                               double deadline_seconds = -1.0);

  /// Convenience synchronous form.
  Response SubmitAndWait(Query query, Tuple tuple,
                         double deadline_seconds = -1.0);

  /// Estimator refresh: bumps the version component of future cache keys
  /// and eagerly drops all cached plans. A request racing with the bump may
  /// still insert a plan under the old version; such entries are
  /// unreachable afterwards and age out of the LRU.
  void InvalidateCache();

  /// Callback form of InvalidateCache, shaped for
  /// AdaptivePlanner::Options::on_plan_adopted. Safe to call from any
  /// thread; must not outlive the service.
  std::function<void()> InvalidationHook();

  uint64_t estimator_version() const { return store_.version(); }

  const ShardedPlanCache& cache() const { return store_.cache(); }
  size_t num_workers() const { return pool_->num_threads(); }

  /// Merged request-stream counts + latency histogram. Snapshot cost is
  /// O(workers x metrics); safe to call concurrently with traffic.
  ServeReport Report() const;

  /// The per-worker metric shards behind Report(), for full JSON export.
  const obs::ShardedRegistry& metrics() const { return metrics_; }

  /// Span buffers + flight recorder. Populated only when
  /// Options::enable_tracing; export with obs::TraceEventsToJson.
  const obs::TraceRecorder& trace_recorder() const { return tracer_; }

  /// Burn-rate monitor, or nullptr unless Options::enable_slo. Snapshot its
  /// gauges for /metrics with GetSnapshot(obs::MonotonicNowNs()).
  const obs::SloMonitor* slo_monitor() const { return slo_.get(); }

  /// Burn fires so far (0 when SLO monitoring is off).
  uint64_t slo_burns_fired() const {
    return slo_ != nullptr ? slo_->burns_fired() : 0;
  }

  /// Cumulative calibration report (predicted vs. observed, per plan and
  /// per attribute) since service start. Empty report unless
  /// Options::enable_calibration. Safe to call concurrently with traffic.
  obs::CalibrationReport CalibrationSnapshot() const;

  /// Evaluates one drift window against Options::drift and fires
  /// InvalidateCache when the policy says so (see DriftPolicy). Serialized
  /// internally; call from a monitor thread at your snapshot cadence.
  /// No-op status (empty window) unless Options::enable_calibration.
  DriftStatus CheckDrift();

  /// The box installed by widen-mode drift firings so far (default box —
  /// degenerate — before the first firing). Thread-safe.
  opt::UncertaintyBox CurrentUncertaintyBox() const;

 private:
  /// Metric refs prefetched from one worker's shard at construction: the
  /// hot path does zero by-name lookups and writes only worker-local lines.
  struct WorkerMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* planned = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* planner_timeouts = nullptr;
    obs::Histogram* latency = nullptr;
  };

  /// The metric / trace / calibration slot of calling-thread hits.
  size_t submitter_slot() const { return options_.num_workers; }

  static std::future<Response> Ready(Response r);

  /// Cache hit, on the calling thread: execute and record in the
  /// submitter slot.
  Response AnswerHit(const PlanKey& key,
                     std::shared_ptr<const CompiledPlan> plan,
                     const Tuple& tuple, uint64_t trace_id, double start,
                     uint64_t submit_ns);

  /// Cache miss, on a worker: deadline check, PlanStore::BuildOnce, then
  /// Execute.
  Response Handle(size_t worker_id, const PlanKey& key,
                  const Query& query, const Tuple& tuple, double deadline,
                  uint64_t trace_id, uint64_t submit_ns);

  /// Runs r.plan over the tuple and records the request's outcome in
  /// `slot`'s metrics and calibration shard, under `key`.
  void Execute(size_t slot, const PlanKey& key, const Tuple& tuple,
               double start, Response& r);

  /// SLO accounting and the pending-count release, for every admitted
  /// request once its response is final.
  void Finish(const Response& r);

  bool tracing_on() const { return options_.enable_tracing; }

  const Schema& schema_;
  const AcquisitionCostModel& cost_model_;
  Options options_;
  std::vector<std::unique_ptr<PlanBuilder>> builders_;  // one per worker
  PlanStore store_;
  /// Requests admitted but not yet completed; drives load shedding.
  std::atomic<size_t> pending_{0};
  /// Shed happens on submitter threads, which own no shard; count it here.
  std::atomic<uint64_t> shed_{0};

  obs::ShardedRegistry metrics_;  // one shard per worker + submitter slot
  std::vector<WorkerMetrics> worker_metrics_;
  obs::TraceRecorder tracer_;

  /// Null unless Options::enable_slo.
  std::unique_ptr<obs::SloMonitor> slo_;
  /// Monotonic deadline of the active burn-shed window (0 = none armed).
  std::atomic<uint64_t> burn_shed_until_ns_{0};

  /// Predicted-vs-observed aggregation, one shard per worker plus the
  /// submitter slot. Null unless Options::enable_calibration.
  std::unique_ptr<obs::CalibrationAggregator> calibration_;
  /// Serializes CheckDrift callers and guards the window state below.
  mutable std::mutex drift_mu_;
  /// Cumulative report as of the previous CheckDrift (window baseline).
  obs::CalibrationReport drift_baseline_;
  int drift_streak_ = 0;
  /// Box accumulated by widen-mode firings (monotone under MergeFrom).
  opt::UncertaintyBox robust_box_;

  /// Last member: its destructor drains the queue while everything the
  /// workers touch is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

/// ServeReport as JSON: the counters verbatim plus the latency histogram in
/// obs::WriteHistogram's format (bucket entries carry [lo, hi) bounds).
std::string ServeReportToJson(const ServeReport& report);

}  // namespace serve
}  // namespace caqp

#endif  // CAQP_SERVE_QUERY_SERVICE_H_
