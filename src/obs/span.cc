#include "obs/span.h"

#include <algorithm>
#include <chrono>

namespace caqp {
namespace obs {

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceRecorder::TraceRecorder(size_t num_workers)
    : TraceRecorder(num_workers, Options()) {}

TraceRecorder::TraceRecorder(size_t num_workers, Options options)
    : options_(options) {
  if (num_workers == 0) num_workers = 1;
  shards_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.reserve(options_.flight_capacity);
    shards_.push_back(std::move(shard));
  }
}

TraceRecorder::RequestScope::RequestScope(TraceRecorder* recorder,
                                          size_t worker, uint64_t trace_id,
                                          uint32_t parent_span) {
  auto& tls = internal::g_thread_trace;
  saved_ = tls;
  tls.recorder = recorder;
  tls.worker = static_cast<uint32_t>(
      recorder ? std::min(worker, recorder->num_workers() - 1) : worker);
  tls.trace_id = trace_id;
  tls.parent = parent_span;
  tls.next_span_id = SpanIdBase(tls.worker);
  tls.plan = PlanKey{};
}

TraceRecorder::RequestScope::~RequestScope() {
  internal::g_thread_trace = saved_;
}

void TraceRecorder::Record(size_t worker, const SpanEvent& ev) {
  Shard& shard = *shards_[worker % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.events.size() < options_.max_events_per_worker) {
    shard.events.push_back(ev);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.flight_capacity > 0) {
    if (shard.ring.size() < options_.flight_capacity) {
      shard.ring.push_back(ev);
      if (shard.ring.size() == options_.flight_capacity) {
        shard.ring_full = true;  // ring_next stays 0: next write wraps
      }
    } else {
      shard.ring[shard.ring_next] = ev;
      shard.ring_next = (shard.ring_next + 1) % options_.flight_capacity;
    }
  }
}

void TraceRecorder::DumpFlight(size_t worker, uint64_t trace_id,
                               const char* reason, const PlanKey& plan) {
  Incident incident;
  incident.trace_id = trace_id;
  incident.reason = reason == nullptr ? "" : reason;
  incident.worker = static_cast<uint32_t>(worker % shards_.size());
  incident.at_ns = MonotonicNowNs();
  incident.plan = plan;
  {
    Shard& shard = *shards_[incident.worker];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.ring_full || shard.ring.size() < options_.flight_capacity) {
      incident.events = shard.ring;  // insertion order == chronological
    } else {
      incident.events.reserve(shard.ring.size());
      // Oldest entry is at ring_next once the ring has wrapped.
      for (size_t i = 0; i < shard.ring.size(); ++i) {
        incident.events.push_back(
            shard.ring[(shard.ring_next + i) % shard.ring.size()]);
      }
    }
  }
  std::lock_guard<std::mutex> lock(incidents_mu_);
  if (incidents_.size() >= options_.max_incidents) {
    incidents_.erase(incidents_.begin());
  }
  incidents_.push_back(std::move(incident));
}

void TraceRecorder::RecordIncident(uint64_t trace_id, const char* reason) {
  Incident incident;
  incident.trace_id = trace_id;
  incident.reason = reason == nullptr ? "" : reason;
  incident.at_ns = MonotonicNowNs();
  std::lock_guard<std::mutex> lock(incidents_mu_);
  if (incidents_.size() >= options_.max_incidents) {
    incidents_.erase(incidents_.begin());
  }
  incidents_.push_back(std::move(incident));
}

std::vector<SpanEvent> TraceRecorder::Events() const {
  std::vector<SpanEvent> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.insert(out.end(), shard->events.begin(), shard->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::vector<TraceRecorder::Incident> TraceRecorder::Incidents() const {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  return incidents_;
}

size_t TraceRecorder::incident_count() const {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  return incidents_.size();
}

void ScopedSpan::Open(uint64_t start_ns) {
  auto& tls = internal::g_thread_trace;
  if (!Enabled()) return;
  active_ = true;
  start_ns_ = start_ns != 0 ? start_ns : MonotonicNowNs();
  span_id_ = tls.next_span_id++;
  parent_ = tls.parent;
  tls.parent = span_id_;
}

void ScopedSpan::Close() {
  auto& tls = internal::g_thread_trace;
  tls.parent = parent_;
  if (tls.recorder == nullptr) return;  // scope ended under us; drop
  const uint64_t end_ns = MonotonicNowNs();
  SpanEvent ev;
  ev.trace_id = tls.trace_id;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  ev.name = name_;
  ev.span_id = span_id_;
  ev.parent_id = parent_;
  ev.worker = tls.worker;
  ev.plan = tls.plan;
  tls.recorder->Record(tls.worker, ev);
}

SpanContext ScopedSpan::context() const {
  SpanContext ctx;
  if (!active_) return ctx;
  ctx.trace_id = internal::g_thread_trace.trace_id;
  ctx.span_id = span_id_;
  ctx.parent_id = parent_;
  return ctx;
}

void internal::RecordSpanBound(const char* name, uint64_t start_ns,
                               uint64_t end_ns) {
  auto& tls = internal::g_thread_trace;
  if (!Enabled()) return;
  SpanEvent ev;
  ev.trace_id = tls.trace_id;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  ev.name = name;
  ev.span_id = tls.next_span_id++;
  ev.parent_id = tls.parent;
  ev.worker = tls.worker;
  ev.plan = tls.plan;
  tls.recorder->Record(tls.worker, ev);
}

}  // namespace obs
}  // namespace caqp
