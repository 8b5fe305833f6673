#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/check.h"
#include "exec/executor.h"
#include "obs/export.h"
#include "obs/registry.h"

namespace caqp {
namespace serve {

namespace {
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t NonZero(size_t n) { return n == 0 ? 1 : n; }

std::vector<std::unique_ptr<PlanBuilder>> MakeBuilders(
    const PlanBuilderFactory& factory, size_t num_workers) {
  std::vector<std::unique_ptr<PlanBuilder>> builders(num_workers);
  for (std::unique_ptr<PlanBuilder>& b : builders) {
    b = factory();
    // A factory whose bundles disagree on config would alias cache entries.
    CAQP_CHECK(b != nullptr && b->ConfigFingerprint() ==
                                   builders[0]->ConfigFingerprint());
  }
  return builders;
}

/// How long after an SLO burn fires Submit sheds at half max_queue_depth.
constexpr uint64_t kBurnShedWindowNs = 5ull * 1000 * 1000 * 1000;
/// Widen mode's FromCalibration scale (interval width per unit of drift)
/// and per-attribute cap on interval half-width (opt/uncertainty.h).
constexpr double kWidenScale = 1.0;
constexpr double kWidenCap = 1.0;
}  // namespace

QueryService::QueryService(const Schema& schema,
                           const AcquisitionCostModel& cost_model,
                           const PlanBuilderFactory& factory, Options options)
    : schema_(schema),
      cost_model_(cost_model),
      options_(options),
      builders_(MakeBuilders(factory, NonZero(options.num_workers))),
      store_(options.cache_capacity, builders_.front()->ConfigFingerprint()),
      metrics_(NonZero(options.num_workers) + 1),
      tracer_(NonZero(options.num_workers) + 1,
              obs::TraceRecorder::Options{
                  .max_events_per_worker = options.max_span_events_per_worker,
              }) {
  options_.num_workers = NonZero(options_.num_workers);
  // Prefetch every hot-path metric ref out of the per-worker shards (plus
  // the submitter slot): the request path below does no by-name lookups and
  // each worker's updates land on lines no other worker writes.
  worker_metrics_.resize(metrics_.num_shards());
  for (size_t i = 0; i < worker_metrics_.size(); ++i) {
    obs::MetricsRegistry& shard = metrics_.shard(i);
    WorkerMetrics& wm = worker_metrics_[i];
    wm.requests = &shard.GetCounter("serve.requests");
    wm.ok = &shard.GetCounter("serve.ok");
    wm.cache_hits = &shard.GetCounter("serve.worker.cache_hits");
    wm.planned = &shard.GetCounter("serve.planned");
    wm.fallbacks = &shard.GetCounter("serve.fallbacks");
    wm.deadline_exceeded = &shard.GetCounter("serve.deadline_exceeded");
    wm.planner_timeouts = &shard.GetCounter("serve.planner_timeouts");
    wm.latency = &shard.GetHistogram("serve.request_latency_seconds");
  }
  if (options_.enable_calibration) {
    calibration_ = std::make_unique<obs::CalibrationAggregator>(
        options_.num_workers + 1);
  }
  if (options_.enable_slo) {
    // Wrap the user hook with the service's own burn reaction: a counter
    // bump, a flight-recorder incident (the ring holds the requests that
    // burned the budget), and arming the burn-shed window. Runs on a serve
    // worker, so everything here must stay cheap and thread-safe.
    obs::SloMonitor::Options slo_options = options_.slo;
    std::function<void(const obs::SloMonitor::BurnEvent&)> user_hook =
        std::move(slo_options.on_burn);
    slo_options.on_burn = [this, user_hook = std::move(user_hook)](
                              const obs::SloMonitor::BurnEvent& event) {
      CAQP_OBS_COUNTER_INC("serve.slo_burns");
      if (tracing_on()) {
        tracer_.RecordIncident(0, event.slo == obs::SloMonitor::Slo::kLatency
                                      ? "slo_burn_latency"
                                      : "slo_burn_availability");
      }
      burn_shed_until_ns_.store(event.at_ns + kBurnShedWindowNs,
                                std::memory_order_relaxed);
      if (user_hook) user_hook(event);
    };
    slo_ = std::make_unique<obs::SloMonitor>(std::move(slo_options));
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
}

QueryService::~QueryService() = default;  // pool_ drains first (last member)

std::future<QueryService::Response> QueryService::Submit(
    Query query, Tuple tuple, double deadline_seconds) {
  const double start = NowSeconds();
  const uint64_t submit_ns = obs::MonotonicNowNs();
  const uint64_t trace_id = tracer_.NewTraceId();

  if (options_.max_queue_depth > 0) {
    // Load shedding: admit-or-reject before touching the worker queue so a
    // saturated service fails fast instead of growing unbounded backlog.
    // During an armed burn-shed window (an SLO burn fired recently) the
    // limit halves: back off admission while the error budget is burning
    // instead of waiting for the queue to saturate.
    size_t limit = options_.max_queue_depth;
    const uint64_t shed_until =
        burn_shed_until_ns_.load(std::memory_order_relaxed);
    if (shed_until != 0 && obs::MonotonicNowNs() < shed_until) {
      limit = std::max<size_t>(1, limit / 2);
    }
    const size_t depth = pending_.fetch_add(1, std::memory_order_acq_rel);
    if (depth >= limit) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      shed_.fetch_add(1, std::memory_order_relaxed);
      CAQP_OBS_COUNTER_INC("serve.shed");
      if (tracing_on()) {
        // Shed requests never reach a worker, so there is no span ring to
        // dump — record a bare incident for the postmortem trail.
        tracer_.RecordIncident(trace_id, "load_shed");
      }
      // Shed requests count against the availability SLO too — they are
      // exactly the unusable answers the budget is supposed to bound.
      if (slo_ != nullptr) {
        slo_->RecordRequest(obs::MonotonicNowNs(), /*available=*/false,
                            /*latency_seconds=*/0.0);
      }
      Response r;
      r.status = Status::Unavailable("queue depth limit reached");
      r.trace_id = trace_id;
      return Ready(std::move(r));
    }
  } else {
    pending_.fetch_add(1, std::memory_order_acq_rel);
  }

  // One counted cache lookup per request, here on the calling thread. A hit
  // is answered here too: handing it to a worker would cost more than
  // executing it.
  const PlanKey key = store_.Key(query);
  if (std::shared_ptr<const CompiledPlan> plan = store_.Get(key)) {
    Response r =
        AnswerHit(key, std::move(plan), tuple, trace_id, start, submit_ns);
    Finish(r);
    return Ready(std::move(r));
  }

  const double relative = deadline_seconds < 0.0
                              ? options_.default_deadline_seconds
                              : deadline_seconds;
  // Absolute pickup deadline; 0 disables the check.
  const double deadline = relative > 0.0 ? start + relative : 0.0;
  auto state = std::make_shared<std::promise<Response>>();
  std::future<Response> result = state->get_future();
  pool_->Submit([this, state, key, deadline, trace_id, submit_ns,
                 query = std::move(query),
                 tuple = std::move(tuple)](size_t worker_id) {
    Response r =
        Handle(worker_id, key, query, tuple, deadline, trace_id, submit_ns);
    if (tracing_on()) {
      // The request span is closed by now, so the flight ring holds the
      // request's full span history when we dump it. The key joins the
      // incident against plan-cache entries and calibration rows.
      if (r.status.code() == StatusCode::kDeadlineExceeded) {
        tracer_.DumpFlight(worker_id, trace_id, "deadline_exceeded", key);
      } else if (r.fallback) {
        tracer_.DumpFlight(worker_id, trace_id, "planner_timeout_fallback",
                           key);
      }
    }
    Finish(r);
    state->set_value(std::move(r));
  });
  return result;
}

QueryService::Response QueryService::SubmitAndWait(Query query, Tuple tuple,
                                                   double deadline_seconds) {
  return Submit(std::move(query), std::move(tuple), deadline_seconds).get();
}

std::future<QueryService::Response> QueryService::Ready(Response r) {
  std::promise<Response> promise;
  promise.set_value(std::move(r));
  return promise.get_future();
}

void QueryService::Finish(const Response& r) {
  if (slo_ != nullptr) {
    // Availability is "usable answer": OK status AND a defined verdict.
    // Degradation to Unknown consumes availability budget even though the
    // request nominally succeeded.
    slo_->RecordRequest(obs::MonotonicNowNs(),
                        r.status.ok() && r.exec.defined(), r.latency_seconds);
  }
  pending_.fetch_sub(1, std::memory_order_acq_rel);
}

QueryService::Response QueryService::AnswerHit(
    const PlanKey& key, std::shared_ptr<const CompiledPlan> plan,
    const Tuple& tuple, uint64_t trace_id, double start, uint64_t submit_ns) {
  const size_t slot = submitter_slot();
  worker_metrics_[slot].requests->Increment();
  // Same span tree as a worker-answered request, minus the queue span: a
  // root backdated to submission, the lookup as "plan", then "exec".
  std::optional<obs::TraceRecorder::RequestScope> scope;
  std::optional<obs::ScopedSpan> root;
  if (tracing_on()) {
    scope.emplace(&tracer_, slot, trace_id);
    root.emplace("request", submit_ns);
    obs::SetRequestPlanContext(key);
    obs::RecordSpan("plan", submit_ns, obs::MonotonicNowNs());
  }
  Response r;
  r.trace_id = trace_id;
  r.query_sig = key.query_sig;
  r.estimator_version = key.estimator_version;
  r.cache_hit = true;
  r.plan = std::move(plan);
  Execute(slot, key, tuple, start, r);
  return r;
}

QueryService::Response QueryService::Handle(size_t worker_id,
                                            const PlanKey& key,
                                            const Query& query,
                                            const Tuple& tuple,
                                            double deadline, uint64_t trace_id,
                                            uint64_t submit_ns) {
  const double start = NowSeconds();
  WorkerMetrics& wm = worker_metrics_[worker_id];
  wm.requests->Increment();

  // scope binds this thread to the recorder; root is the whole-request span
  // (backdated to submission so the queue wait is inside it). Declaration
  // order matters: root must close while the scope is still bound.
  std::optional<obs::TraceRecorder::RequestScope> scope;
  std::optional<obs::ScopedSpan> root;
  if (tracing_on()) {
    scope.emplace(&tracer_, worker_id, trace_id);
    // Every span this request records carries the calibration join key
    // (obs/span.h).
    obs::SetRequestPlanContext(key);
    root.emplace("request", submit_ns);
    // The queue span ended the moment this worker picked the request up.
    obs::RecordSpan("queue", submit_ns, obs::MonotonicNowNs());
  }

  Response r;
  r.trace_id = trace_id;
  if (deadline > 0.0 && start > deadline) {
    // The request aged out in the queue; planning/executing now would only
    // burn worker time on an answer the client has abandoned.
    r.status = Status::DeadlineExceeded("deadline passed before worker pickup");
    wm.deadline_exceeded->Increment();
    return r;
  }
  r.query_sig = key.query_sig;
  r.estimator_version = key.estimator_version;
  PlanBuilder& builder = *builders_[worker_id];
  const auto compile = [&](const Plan& plan) {
    return CompileForServe(builder, plan, cost_model_, calibration_ != nullptr);
  };

  {
    CAQP_OBS_SPAN(plan_span, "plan");
    // Submit already counted this request's miss. Compile once at insert
    // time: every cached-path execution after this runs the flat IR with
    // zero PlanNode clones or copies.
    PlanStore::Built built = store_.BuildOnce(
        key, [&] { return compile(builder.Build(query)); },
        options_.planner_timeout_seconds);
    if (built.timed_out) {
      // The leader is still planning; answer from the cheap fallback plan
      // rather than blocking past the timeout. The fallback is NOT cached:
      // the leader's (better) plan lands in the cache when it finishes.
      wm.planner_timeouts->Increment();
      CAQP_OBS_SPAN(fallback_span, "plan.build_fallback");
      r.plan = compile(builder.BuildFallback(query));
      r.fallback = true;
    } else {
      r.plan = std::move(built.plan);
      r.planned = built.planned;
    }
  }
  Execute(worker_id, key, tuple, start, r);
  return r;
}

void QueryService::Execute(size_t slot, const PlanKey& key,
                           const Tuple& tuple, double start, Response& r) {
  WorkerMetrics& wm = worker_metrics_[slot];
  if (r.cache_hit) wm.cache_hits->Increment();
  if (r.planned) wm.planned->Increment();
  if (r.fallback) wm.fallbacks->Increment();

  ExecutionProfile* profile = nullptr;
  if (calibration_ != nullptr && !r.fallback) {
    // Fallback plans are transient (never cached) and can differ in shape
    // from the keyed plan, so they are excluded from calibration rather
    // than corrupting the per-node rows of the real plan under this key.
    profile = calibration_->Profile(slot, key, r.plan);
  }
  TupleSource source(tuple);
  r.exec = ExecutePlan(*r.plan, schema_, cost_model_, source,
                       /*trace=*/nullptr, DegradationPolicy{}, profile);

  r.latency_seconds = NowSeconds() - start;
  if (r.ok()) wm.ok->Increment();
  // Lock-free slot-local histogram: completions share no global mutex.
  wm.latency->Record(r.latency_seconds);
}

obs::CalibrationReport QueryService::CalibrationSnapshot() const {
  if (calibration_ == nullptr) return obs::CalibrationReport{};
  return calibration_->Snapshot();
}

DriftStatus QueryService::CheckDrift() {
  DriftStatus status;
  if (calibration_ == nullptr) return status;
  std::lock_guard<std::mutex> lock(drift_mu_);
  obs::CalibrationReport cumulative = calibration_->Snapshot();
  status.window = cumulative.DeltaSince(drift_baseline_);
  drift_baseline_ = std::move(cumulative);
  status.max_drift = status.window.MaxDrift(options_.drift.min_window_evals);
  const DriftPolicy& policy = options_.drift;
  status.box = robust_box_;
  if (policy.threshold <= 0.0) return status;  // reporting only

  double effective = status.max_drift;
  if (policy.widen_on_drift) {
    // Excess drift: how far each attribute's signed calibration gap falls
    // *outside* the installed box's shift interval. Drift the box already
    // covers is hedged by the robust plans, so it must not re-fire — this
    // is what makes the widen loop converge in one invalidation instead of
    // thrashing on the residual gap every window.
    double excess = 0.0;
    for (const obs::AttrCalibration& a : status.window.attrs) {
      if (a.evals < policy.min_window_evals) continue;
      if (a.attr == kInvalidAttr ||
          static_cast<size_t>(a.attr) >= kMaxAttributes) {
        continue;
      }
      const double d = a.signed_drift();
      const size_t i = static_cast<size_t>(a.attr);
      excess = std::max(excess, std::max(d - robust_box_.shift_hi[i],
                                         robust_box_.shift_lo[i] - d));
    }
    status.excess_drift = std::max(0.0, excess);
    effective = status.excess_drift;
  } else {
    status.excess_drift = status.max_drift;
  }

  status.over_threshold = effective > policy.threshold;
  drift_streak_ = status.over_threshold ? drift_streak_ + 1 : 0;
  status.streak = drift_streak_;
  if (drift_streak_ >= policy.consecutive_windows) {
    if (policy.widen_on_drift) {
      // Widen first: the box the replanned plans hedge against must be
      // installed (and pushed via on_widen) before the retrain hook and
      // the invalidation force rebuilds.
      robust_box_.MergeFrom(opt::UncertaintyBox::FromCalibration(
          status.window, kWidenScale, kWidenCap, policy.min_window_evals));
      status.box = robust_box_;
      status.widened = true;
      if (policy.on_widen) policy.on_widen(robust_box_, status.window);
    }
    // Retrain hook next, so the replanned plans InvalidateCache forces
    // are built from refreshed beliefs, not the drifted ones.
    if (policy.on_drift) policy.on_drift(status.window);
    InvalidateCache();
    CAQP_OBS_COUNTER_INC("serve.drift_invalidations");
    drift_streak_ = 0;
    status.fired = true;
  }
  return status;
}

opt::UncertaintyBox QueryService::CurrentUncertaintyBox() const {
  std::lock_guard<std::mutex> lock(drift_mu_);
  return robust_box_;
}

void QueryService::InvalidateCache() { store_.Invalidate(); }

ServeReport QueryService::Report() const {
  // ServeReport and WorkerReport share these fields.
  const auto read = [](const obs::RegistrySnapshot& snap, auto& out) {
    out.requests = snap.CounterByName("serve.requests");
    out.ok = snap.CounterByName("serve.ok");
    out.cache_hits = snap.CounterByName("serve.worker.cache_hits");
    out.planned = snap.CounterByName("serve.planned");
    out.fallbacks = snap.CounterByName("serve.fallbacks");
    out.deadline_exceeded = snap.CounterByName("serve.deadline_exceeded");
    out.planner_timeouts = snap.CounterByName("serve.planner_timeouts");
    out.latency = snap.HistogramByName("serve.request_latency_seconds");
  };
  ServeReport rep;
  read(metrics_.Snapshot(), rep);
  rep.shed = shed_.load(std::memory_order_relaxed);
  rep.pending = pending_.load(std::memory_order_relaxed);
  rep.workers.resize(metrics_.num_shards());
  for (size_t i = 0; i < rep.workers.size(); ++i) {
    rep.workers[i].worker = i;
    read(metrics_.shard(i).Snapshot(), rep.workers[i]);
  }
  return rep;
}

std::string ServeReportToJson(const ServeReport& report) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("requests").UInt(report.requests);
  w.Key("ok").UInt(report.ok);
  w.Key("cache_hits").UInt(report.cache_hits);
  w.Key("planned").UInt(report.planned);
  w.Key("fallbacks").UInt(report.fallbacks);
  w.Key("deadline_exceeded").UInt(report.deadline_exceeded);
  w.Key("planner_timeouts").UInt(report.planner_timeouts);
  w.Key("shed").UInt(report.shed);
  w.Key("pending").UInt(report.pending);
  w.Key("latency");
  obs::WriteHistogram(w, report.latency);
  w.Key("workers").BeginArray();
  for (const WorkerReport& worker : report.workers) {
    w.BeginObject();
    w.Key("worker").UInt(worker.worker);
    w.Key("requests").UInt(worker.requests);
    w.Key("ok").UInt(worker.ok);
    w.Key("cache_hits").UInt(worker.cache_hits);
    w.Key("planned").UInt(worker.planned);
    w.Key("fallbacks").UInt(worker.fallbacks);
    w.Key("deadline_exceeded").UInt(worker.deadline_exceeded);
    w.Key("planner_timeouts").UInt(worker.planner_timeouts);
    // Compact per-worker latency summary; the full bucket layout is already
    // exported once in the aggregate histogram above.
    w.Key("latency");
    w.BeginObject();
    w.Key("count").UInt(worker.latency.count);
    w.Key("mean").Double(worker.latency.mean());
    w.Key("p50").Double(worker.latency.p50());
    w.Key("p99").Double(worker.latency.p99());
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace serve
}  // namespace caqp
