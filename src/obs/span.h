// Request-scoped spans and the flight recorder (caqp::obs v2).
//
// A span is one timed phase of one request (queueing, planning, execution,
// dissemination, ...). Spans carry a SpanContext — trace id (the request),
// span id, parent span id — plus monotonic start/duration ticks, and are
// recorded into per-worker buffers owned by a TraceRecorder. The buffers
// export as Chrome/Perfetto trace-event JSON (obs/export.h), so
// `caqp_serve --trace-out trace.json` produces a file ui.perfetto.dev opens
// directly.
//
// Propagation is by thread binding, not by threading a context argument
// through every call signature: QueryService opens a
// TraceRecorder::RequestScope around each request it handles, which binds
// the worker thread to (recorder, worker, trace id). Every CAQP_OBS_SPAN
// hit below that frame — single-flight waits, Planner::BuildPlan,
// ExecutePlan / ColumnarBatchExecutor::Execute, Basestation::Disseminate —
// then records into the bound recorder with the correct parentage. A thread
// with no binding (every non-serve caller) pays one thread-local load and
// an untaken branch per span site.
//
// Flight recorder: independently of the span buffers (which are sized for
// whole-run export), each worker keeps a small ring of its most recent span
// events. When a request ends degraded — kDeadlineExceeded, kUnavailable,
// or planner-timeout fallback — the ring is dumped into an incident list,
// preserving postmortem context for exactly the requests that vanished from
// the happy-path metrics.

#ifndef CAQP_OBS_SPAN_H_
#define CAQP_OBS_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan_key.h"
#include "obs/obs.h"

namespace caqp {
namespace obs {

/// Identity of one span within one request trace. span_id 0 is "no span"
/// (the root's parent).
struct SpanContext {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_id = 0;
};

/// Span ids are namespaced by worker slot: worker w allocates ids in
/// [w << kSpanIdWorkerShift + 1, (w + 1) << kSpanIdWorkerShift). Two scopes
/// bound to different worker slots of one TraceRecorder therefore never
/// collide, which is what lets a shard's spans join the coordinator's
/// request span into one trace (dist scatter: coordinator is slot 0,
/// shard i is slot i + 1). 2^22 spans per worker per request, 1024 workers.
inline constexpr uint32_t kSpanIdWorkerShift = 22;

/// First span id a scope bound to `worker` allocates.
inline constexpr uint32_t SpanIdBase(uint32_t worker) {
  return (worker << kSpanIdWorkerShift) + 1;
}

/// One completed span. `name` must point at static storage (string
/// literals): events are copied around freely and never own the name.
/// `plan` is the request's plan identity (set via SetRequestPlanContext
/// once the serving layer has resolved which plan a request runs; empty =
/// not yet known) — the join key against calibration reports and the plan
/// caches.
struct SpanEvent {
  uint64_t trace_id = 0;
  uint64_t start_ns = 0;  ///< monotonic clock
  uint64_t dur_ns = 0;
  const char* name = "";
  uint32_t span_id = 0;
  uint32_t parent_id = 0;
  uint32_t worker = 0;
  PlanKey plan;
};

/// Monotonic (steady_clock) nanoseconds; the time base of every span tick.
uint64_t MonotonicNowNs();

class TraceRecorder;

namespace internal {
/// Per-thread span cursor. recorder == nullptr means unbound: every span
/// site is a no-op. Bound only inside TraceRecorder::RequestScope.
struct ThreadTraceState {
  TraceRecorder* recorder = nullptr;
  uint32_t worker = 0;
  uint64_t trace_id = 0;
  uint32_t parent = 0;        ///< innermost open span (0 at the root)
  uint32_t next_span_id = 1;  ///< per-request span id allocator
  /// Plan identity of the in-flight request (SetRequestPlanContext); every
  /// span and flight-recorder event closed on this thread inherits it.
  PlanKey plan;
};
inline thread_local ThreadTraceState g_thread_trace;
}  // namespace internal

/// Stamps the bound request's plan identity onto the calling thread; spans
/// recorded after this call (including the enclosing request root, which
/// closes last) and flight-recorder dumps carry it. No-op on unbound
/// threads. Cleared automatically when the RequestScope ends.
inline void SetRequestPlanContext(const PlanKey& plan) {
  auto& tls = internal::g_thread_trace;
  if (tls.recorder == nullptr) return;
  tls.plan = plan;
}

/// Collects span events into per-worker buffers plus per-worker flight
/// rings. Each shard is written by one bound worker thread at a time (the
/// serve pool guarantees this) under an uncontended per-shard mutex, so
/// concurrent Events()/Incidents() readers are race-free (TSan-clean)
/// without hot-path cross-worker sharing.
class TraceRecorder {
 public:
  struct Options {
    /// Span-buffer capacity per worker; events beyond it are counted in
    /// dropped_events() instead of growing without bound.
    size_t max_events_per_worker = 1 << 15;
    /// Flight-recorder ring entries per worker.
    size_t flight_capacity = 128;
    /// Oldest incidents are discarded beyond this many.
    size_t max_incidents = 8192;
  };

  /// One flight-recorder dump: the dumping worker's recent span events
  /// (oldest first) at the moment a request ended degraded. `plan` joins
  /// the incident against calibration reports (obs/calibration.h) and the
  /// plan caches; empty when the request never resolved a plan.
  struct Incident {
    uint64_t trace_id = 0;
    std::string reason;
    uint32_t worker = 0;
    uint64_t at_ns = 0;
    PlanKey plan;
    std::vector<SpanEvent> events;
  };

  explicit TraceRecorder(size_t num_workers);
  TraceRecorder(size_t num_workers, Options options);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  size_t num_workers() const { return shards_.size(); }

  /// Allocates a fresh request trace id (never 0).
  uint64_t NewTraceId() {
    return next_trace_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Binds the calling thread to (this recorder, worker, trace_id) for the
  /// scope's lifetime; CAQP_OBS_SPAN sites on this thread record here.
  /// Scopes must not nest across recorders on one thread.
  ///
  /// `parent_span` is the cross-worker parent: spans opened under this scope
  /// with no enclosing local span get it as their parent_id instead of 0.
  /// The dist tier threads the coordinator's scatter-span id here so every
  /// shard-side span tree hangs off the coordinator request span. Span ids
  /// allocated under the scope start at SpanIdBase(worker), so scopes on
  /// different worker slots of one recorder never collide.
  class RequestScope {
   public:
    RequestScope(TraceRecorder* recorder, size_t worker, uint64_t trace_id,
                 uint32_t parent_span = 0);
    ~RequestScope();
    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;

   private:
    internal::ThreadTraceState saved_;
  };

  /// Appends one completed event to `worker`'s buffer and flight ring.
  /// Normally called via ScopedSpan / RecordSpan, not directly.
  void Record(size_t worker, const SpanEvent& ev);

  /// Flight-recorder dump: snapshots `worker`'s ring (oldest first) into
  /// the incident list. Call when a request ends degraded. `plan` is the
  /// request's plan identity when known.
  void DumpFlight(size_t worker, uint64_t trace_id, const char* reason,
                  const PlanKey& plan = {});

  /// Incident with no span context and no plan, for requests rejected
  /// before reaching a worker (load shedding happens on the submitting
  /// thread) and service-level events.
  void RecordIncident(uint64_t trace_id, const char* reason);

  /// All buffered events across workers, sorted by start tick.
  std::vector<SpanEvent> Events() const;
  std::vector<Incident> Incidents() const;
  size_t incident_count() const;
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  // Shards are separately allocated (and padded) so one worker's appends
  // never share a cache line with another's.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<SpanEvent> events;  // guarded by mu
    std::vector<SpanEvent> ring;    // guarded by mu; flight recorder
    size_t ring_next = 0;           // guarded by mu
    bool ring_full = false;         // guarded by mu
  };

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_trace_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex incidents_mu_;
  std::vector<Incident> incidents_;  // guarded by incidents_mu_
};

/// RAII span: opens on construction, records on destruction. Inactive on
/// unbound threads or when obs::SetEnabled(false); the unbound check is
/// inline (one thread-local load and an untaken branch) so hot paths shared
/// with non-serve callers — the executor inner loop in particular — pay no
/// out-of-line call when tracing is not in play.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    if (internal::g_thread_trace.recorder != nullptr) Open(0);
  }

  /// `start_ns` overrides the span start (0 = now) — used for spans that
  /// logically began on another thread, e.g. the request root measured from
  /// submission time.
  ScopedSpan(const char* name, uint64_t start_ns) : name_(name) {
    if (internal::g_thread_trace.recorder != nullptr) Open(start_ns);
  }

  ~ScopedSpan() {
    if (active_) Close();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  SpanContext context() const;

 private:
  void Open(uint64_t start_ns);  // bound slow path; checks Enabled()
  void Close();                  // records the event

  const char* name_;
  uint64_t start_ns_ = 0;
  uint32_t span_id_ = 0;
  uint32_t parent_ = 0;
  bool active_ = false;
};

namespace internal {
/// Slow path of RecordSpan, called only with a bound recorder.
void RecordSpanBound(const char* name, uint64_t start_ns, uint64_t end_ns);
}  // namespace internal

/// Records an already-closed span [start_ns, end_ns] as a child of the
/// innermost open span on the bound thread. No-op when unbound/disabled.
inline void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  if (internal::g_thread_trace.recorder != nullptr) {
    internal::RecordSpanBound(name, start_ns, end_ns);
  }
}

/// True iff the calling thread is inside a RequestScope.
inline bool TracingBound() {
  return internal::g_thread_trace.recorder != nullptr;
}

}  // namespace obs
}  // namespace caqp

// Statement macro for instrumenting a scope.
#define CAQP_OBS_SPAN(var, name) ::caqp::obs::ScopedSpan var(name)

#endif  // CAQP_OBS_SPAN_H_
