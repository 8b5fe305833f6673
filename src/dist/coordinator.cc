#include "dist/coordinator.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "dist/merge.h"
#include "exec/result_serde.h"
#include "obs/export.h"
#include "plan/plan_serde.h"

namespace caqp::dist {

namespace {
std::unique_ptr<serve::PlanBuilder> MakeBuilder(
    const serve::PlanBuilderFactory& factory) {
  std::unique_ptr<serve::PlanBuilder> builder = factory();
  CAQP_CHECK(builder != nullptr);
  return builder;
}
}  // namespace

Coordinator::Coordinator(const Dataset& data,
                         const AcquisitionCostModel& cost_model,
                         const serve::PlanBuilderFactory& factory,
                         Options options)
    : data_(data),
      cost_model_(cost_model),
      options_(std::move(options)),
      metrics_(options_.partition.num_shards + 1),
      tracer_(options_.partition.num_shards + 1,
              obs::TraceRecorder::Options{
                  .max_events_per_worker = options_.max_span_events_per_worker,
              }),
      builder_(MakeBuilder(factory)),
      store_(options_.plan_cache_capacity, builder_->ConfigFingerprint()) {
  const size_t n = options_.partition.num_shards;
  CAQP_CHECK(n > 0);
  if (options_.enable_calibration) {
    calibration_ = std::make_unique<obs::CalibrationAggregator>(n);
  }

  obs::MetricsRegistry& coord = metrics_.shard(0);
  cm_.queries = &coord.GetCounter("dist.queries");
  cm_.degraded_queries = &coord.GetCounter("dist.degraded_queries");
  cm_.stragglers = &coord.GetCounter("dist.stragglers");
  cm_.probes = &coord.GetCounter("dist.probes");
  cm_.planned = &coord.GetCounter("dist.planned");
  cm_.cache_hits = &coord.GetCounter("dist.cache_hits");
  cm_.trace_mismatches = &coord.GetCounter("dist.trace_echo_mismatches");
  cm_.query_latency = &coord.GetHistogram("dist.query_latency_seconds");

  std::vector<std::vector<RowId>> partitions =
      PartitionRows(options_.partition, data_.num_rows());
  slots_.reserve(n);
  shards_.reserve(n);
  shard_failures_.reserve(n);
  shard_timeouts_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>(options_.health));
    shard_failures_.push_back(
        &metrics_.shard(i + 1).GetCounter("dist.shard.failures"));
    shard_timeouts_.push_back(
        &metrics_.shard(i + 1).GetCounter("dist.shard.timeouts"));

    ExecutorShard::Options so;
    so.row_policy = options_.row_policy;
    so.acquisition_faults = options_.acquisition_faults;
    if (const ShardFaultSpec::Entry* fault =
            options_.shard_faults.FindEntry(i)) {
      so.kill_after = fault->kill_after;
      so.delay_seconds = fault->delay_seconds;
    }
    so.metrics = &metrics_.shard(i + 1);
    if (options_.enable_tracing) {
      so.tracer = &tracer_;
      so.trace_worker = i + 1;
    }
    if (calibration_ != nullptr) {
      so.calibration = calibration_.get();
      so.calibration_shard = i;
    }
    shards_.push_back(std::make_unique<ExecutorShard>(
        i, data_, std::move(partitions[i]), cost_model_, std::move(so)));
  }
}

Coordinator::~Coordinator() = default;  // shards_ drain first (last member)

Coordinator::Response Coordinator::Execute(const Query& query) {
  const uint64_t seq =
      query_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t t0 = obs::MonotonicNowNs();
  const uint64_t trace_id = tracer_.NewTraceId();

  std::optional<obs::TraceRecorder::RequestScope> scope;
  std::optional<obs::ScopedSpan> root;
  if (options_.enable_tracing) {
    scope.emplace(&tracer_, /*worker=*/0, trace_id);
    root.emplace("dist.query");
  }

  const PlanKey key = store_.Key(query);
  Response r;
  r.trace_id = trace_id;
  r.query_sig = key.query_sig;
  r.estimator_version = key.estimator_version;
  if (options_.enable_tracing) obs::SetRequestPlanContext(key);

  {
    CAQP_OBS_SPAN(plan_span, "dist.plan");
    r.plan = store_.Get(key);
    r.cache_hit = r.plan != nullptr;
    if (!r.cache_hit) {
      serve::PlanStore::Built built = store_.BuildOnce(key, [&] {
        // Planning is serialized through the single builder; the store's
        // cache and single flight keep it off the steady-state path.
        std::lock_guard<std::mutex> lock(builder_mu_);
        return serve::CompileForServe(*builder_, builder_->Build(query),
                                      cost_model_, calibration_ != nullptr);
      });
      r.plan = std::move(built.plan);
      r.planned = built.planned;
    }
  }
  cm_.queries->Increment();
  if (r.cache_hit) cm_.cache_hits->Increment();
  if (r.planned) cm_.planned->Increment();

  // The same bytes a basestation would radio; shared across shards, decoded
  // at most once per shard per key (per-shard plan cache).
  auto plan_bytes =
      std::make_shared<const std::vector<uint8_t>>(SerializePlan(*r.plan));

  const size_t n = shards_.size();
  r.shards_total = n;
  r.shard_status.assign(n, Status::OK());
  // Answering shards write their rows' verdicts into this buffer in place
  // (dist/shard.h); rows no shard writes stay kUnknown.
  auto verdicts =
      std::make_shared<std::vector<Truth>>(data_.num_rows(), Truth::kUnknown);

  std::vector<std::future<ShardReply>> futures(n);
  std::vector<char> attempted(n, 0);
  // The gather deadline counts from scatter: planning and serializing the
  // plan above are not the shards' time.
  const uint64_t scatter_ns = obs::MonotonicNowNs();
  {
    // Its context is the parent every shard span joins under. Inert when
    // obs is disabled or the request is untraced — shards then receive
    // span_id 0 (no parent).
    obs::ScopedSpan scatter_span("dist.scatter");
    obs::SpanContext parent = scatter_span.context();
    parent.trace_id = trace_id;  // propagate even when spans are inactive
    for (size_t i = 0; i < n; ++i) {
      bool attempt = false;
      bool probe = false;
      {
        std::lock_guard<std::mutex> lock(slots_[i]->mu);
        attempt = slots_[i]->health.ShouldAttempt(seq);
        probe = attempt &&
                slots_[i]->health.state() == ShardHealth::State::kDead;
      }
      if (!attempt) {
        r.shard_status[i] = Status::ShardUnavailable(
            "shard " + std::to_string(i) + " marked dead; skipped");
        continue;
      }
      if (probe) cm_.probes->Increment();
      attempted[i] = 1;
      futures[i] =
          shards_[i]->Submit(ShardRequest{key, plan_bytes, verdicts}, parent);
    }
  }

  ExecutionResult merged = MergeIdentity();
  bool straggling = false;  // an abandoned shard may still write `verdicts`
  {
    CAQP_OBS_SPAN(gather_span, "dist.gather");
    for (size_t i = 0; i < n; ++i) {
      if (!attempted[i]) {
        merged = MergeExecutionResults(merged, UnknownShardResult());
        r.unknown_rows += shards_[i]->num_rows();
        ++r.shards_skipped;
        continue;
      }
      // Shared gather budget: each shard gets whatever remains of the
      // per-query deadline, measured from scatter.
      bool ready = true;
      if (options_.shard_deadline_seconds > 0.0) {
        const double elapsed =
            static_cast<double>(obs::MonotonicNowNs() - scatter_ns) * 1e-9;
        const double remaining = options_.shard_deadline_seconds - elapsed;
        ready = remaining > 0.0 &&
                futures[i].wait_for(std::chrono::duration<double>(
                    remaining)) == std::future_status::ready;
      }
      const auto fail = [&](Status status, const char* reason) {
        r.shard_status[i] = std::move(status);
        shard_failures_[i]->Increment();
        {
          std::lock_guard<std::mutex> lock(slots_[i]->mu);
          slots_[i]->health.OnFailure();
        }
        if (options_.enable_tracing) {
          // Incident::worker carries the shard id (slot i + 1).
          tracer_.DumpFlight(i + 1, trace_id, reason, key);
        }
        merged = MergeExecutionResults(merged, UnknownShardResult());
        r.unknown_rows += shards_[i]->num_rows();
        ++r.shards_degraded;
      };
      if (!ready) {
        // Straggler: the shard may still finish (the abandoned future's
        // promise is fulfilled harmlessly, and its request keeps `verdicts`
        // alive), but this query degrades its partition rather than waiting.
        straggling = true;
        cm_.stragglers->Increment();
        shard_timeouts_[i]->Increment();
        fail(Status::DeadlineExceeded("shard " + std::to_string(i) +
                                      " missed the gather deadline"),
             "shard_timeout");
        continue;
      }
      ShardReply reply = futures[i].get();
      if (!reply.status.ok()) {
        fail(std::move(reply.status), "shard_unavailable");
        continue;
      }
      // An OK reply means the shard wrote its rows; rejecting the reply
      // takes them back.
      const auto reject = [&](Status status, const char* reason) {
        for (RowId row : shards_[i]->rows()) {
          (*verdicts)[row] = Truth::kUnknown;
        }
        fail(std::move(status), reason);
      };
      ResultTraceContext echo;
      Result<ExecutionResult> partial =
          DeserializeExecutionResult(reply.result_bytes, &echo);
      if (!partial.ok() || reply.rows_written != shards_[i]->num_rows() ||
          reply.matches + reply.unknown_rows > reply.rows_written) {
        // A reply we cannot validate merges exactly like a lost shard.
        reject(partial.ok()
                   ? Status::DataLoss("shard " + std::to_string(i) +
                                      " reply row count mismatch")
                   : partial.status(),
               "shard_reply_corrupt");
        continue;
      }
      if (echo.present() && echo.trace_id != trace_id) {
        // The reply executed under some other trace — a scatter/gather
        // pairing bug or a stale wire buffer. Degrade like corruption.
        cm_.trace_mismatches->Increment();
        reject(Status::DataLoss("shard " + std::to_string(i) +
                                " echoed a foreign trace id"),
               "shard_trace_mismatch");
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(slots_[i]->mu);
        slots_[i]->health.OnSuccess();
      }
      merged = MergeExecutionResults(merged, partial.value());
      r.matches += reply.matches;
      r.unknown_rows += reply.unknown_rows;
      ++r.shards_ok;
    }
  }

  {
    CAQP_OBS_SPAN(merge_span, "dist.merge");
    r.merged = merged;
    if (!straggling) {
      // Every attempted shard has answered: nothing writes the buffer now.
      r.row_verdicts = std::move(*verdicts);
    } else {
      // A straggler may still write its own rows. Copy only the merged
      // shards' rows, so the response never aliases a live writer's bytes.
      r.row_verdicts.assign(data_.num_rows(), Truth::kUnknown);
      for (size_t i = 0; i < n; ++i) {
        if (!r.shard_status[i].ok()) continue;
        for (RowId row : shards_[i]->rows()) {
          r.row_verdicts[row] = (*verdicts)[row];
        }
      }
    }
  }

  if (r.degraded()) cm_.degraded_queries->Increment();
  r.latency_seconds = static_cast<double>(obs::MonotonicNowNs() - t0) * 1e-9;
  cm_.query_latency->Record(r.latency_seconds);
  r.status = Status::OK();
  return r;
}

void Coordinator::InvalidateCache() {
  store_.Invalidate();
  for (const std::unique_ptr<ExecutorShard>& shard : shards_) {
    shard->InvalidatePlans();
  }
}

ShardHealth::State Coordinator::shard_state(size_t shard) const {
  std::lock_guard<std::mutex> lock(slots_[shard]->mu);
  return slots_[shard]->health.state();
}

obs::CalibrationReport Coordinator::CalibrationSnapshot() const {
  if (calibration_ == nullptr) return obs::CalibrationReport{};
  return calibration_->Snapshot();
}

DistReport Coordinator::Report() const {
  DistReport rep;
  const obs::RegistrySnapshot coord = metrics_.shard(0).Snapshot();
  rep.queries = coord.CounterByName("dist.queries");
  rep.degraded_queries = coord.CounterByName("dist.degraded_queries");
  rep.stragglers = coord.CounterByName("dist.stragglers");
  rep.probes = coord.CounterByName("dist.probes");
  rep.planned = coord.CounterByName("dist.planned");
  rep.cache_hits = coord.CounterByName("dist.cache_hits");
  rep.query_latency = coord.HistogramByName("dist.query_latency_seconds");
  rep.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const obs::RegistrySnapshot snap = metrics_.shard(i + 1).Snapshot();
    ShardReportRow row;
    row.shard = i;
    row.state = shard_state(i);
    row.rows = shards_[i]->num_rows();
    row.requests = snap.CounterByName("dist.shard.requests");
    row.failures = snap.CounterByName("dist.shard.failures");
    row.timeouts = snap.CounterByName("dist.shard.timeouts");
    row.cache_hits = snap.CounterByName("dist.shard.cache_hits");
    row.exec_latency = snap.HistogramByName("dist.shard.exec_seconds");
    rep.shards.push_back(std::move(row));
  }
  return rep;
}

std::string DistReportToJson(const DistReport& report) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("queries").UInt(report.queries);
  w.Key("degraded_queries").UInt(report.degraded_queries);
  w.Key("stragglers").UInt(report.stragglers);
  w.Key("probes").UInt(report.probes);
  w.Key("planned").UInt(report.planned);
  w.Key("cache_hits").UInt(report.cache_hits);
  w.Key("query_latency");
  obs::WriteHistogram(w, report.query_latency);
  w.Key("shards").BeginArray();
  for (const ShardReportRow& row : report.shards) {
    w.BeginObject();
    w.Key("shard").UInt(row.shard);
    w.Key("state").String(ShardHealthStateName(row.state));
    w.Key("rows").UInt(row.rows);
    w.Key("requests").UInt(row.requests);
    w.Key("failures").UInt(row.failures);
    w.Key("timeouts").UInt(row.timeouts);
    w.Key("cache_hits").UInt(row.cache_hits);
    w.Key("exec_latency");
    obs::WriteHistogram(w, row.exec_latency);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace caqp::dist
