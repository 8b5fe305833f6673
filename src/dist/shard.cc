#include "dist/shard.h"

#include <chrono>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "exec/batch_executor.h"
#include "exec/result_serde.h"
#include "plan/plan_serde.h"

namespace caqp::dist {

namespace {

/// Plans a shard keeps decoded (one LRU, no lock contention: one worker).
constexpr size_t kPlanCacheCapacity = 64;

/// ParseDecimal (fault/fault.h) for a size, with the directive's error.
Status ParseSizeT(const std::string& text, size_t* out,
                  size_t max = SIZE_MAX) {
  uint64_t v = 0;
  if (!ParseDecimal(text, max, &v)) {
    return Status::InvalidArgument("bad number '" + text + "'");
  }
  *out = static_cast<size_t>(v);
  return Status::OK();
}

/// 0..n-1: the rows of a shard's local copy.
std::vector<RowId> LocalRows(size_t n) {
  std::vector<RowId> rows(n);
  std::iota(rows.begin(), rows.end(), RowId{0});
  return rows;
}

}  // namespace

const ShardFaultSpec::Entry* ShardFaultSpec::FindEntry(size_t shard) const {
  for (const Entry& e : entries) {
    if (e.shard == shard) return &e;
  }
  return nullptr;
}

Result<ShardFaultSpec> ShardFaultSpec::Parse(const std::string& text) {
  ShardFaultSpec spec;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    const size_t at = item.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument("shard fault '" + item +
                                     "' missing '@<shard>'");
    }
    const std::string verb = item.substr(0, at);
    const size_t eq = item.find('=', at);
    const std::string shard_text =
        item.substr(at + 1, (eq == std::string::npos ? item.size() : eq) -
                                (at + 1));
    size_t shard = 0;
    CAQP_RETURN_IF_ERROR(ParseSizeT(shard_text, &shard));

    Entry* entry = nullptr;
    for (Entry& e : spec.entries) {
      if (e.shard == shard) entry = &e;
    }
    if (entry == nullptr) {
      spec.entries.push_back(Entry{shard, -1, 0.0});
      entry = &spec.entries.back();
    }

    if (verb == "kill") {
      size_t after = 0;
      if (eq != std::string::npos) {
        CAQP_RETURN_IF_ERROR(ParseSizeT(item.substr(eq + 1), &after,
                                        static_cast<size_t>(INT64_MAX)));
      }
      entry->kill_after = static_cast<int64_t>(after);
    } else if (verb == "delay") {
      if (eq == std::string::npos) {
        return Status::InvalidArgument("delay@ needs '=<millis>'");
      }
      size_t millis = 0;
      CAQP_RETURN_IF_ERROR(ParseSizeT(item.substr(eq + 1), &millis));
      entry->delay_seconds = static_cast<double>(millis) / 1000.0;
    } else {
      return Status::InvalidArgument("unknown shard fault verb '" + verb +
                                     "' (expected kill|delay)");
    }
  }
  return spec;
}

std::string ShardFaultSpec::ToString() const {
  std::string out;
  for (const Entry& e : entries) {
    if (e.kill_after >= 0) {
      if (!out.empty()) out += ',';
      out += "kill@" + std::to_string(e.shard) + "=" +
             std::to_string(e.kill_after);
    }
    if (e.delay_seconds > 0.0) {
      if (!out.empty()) out += ',';
      out += "delay@" + std::to_string(e.shard) + "=" +
             std::to_string(
                 static_cast<int64_t>(e.delay_seconds * 1000.0 + 0.5));
    }
  }
  return out;
}

ExecutorShard::ExecutorShard(size_t shard_id, const Dataset& data,
                             std::vector<RowId> rows,
                             const AcquisitionCostModel& cost_model,
                             Options options)
    : shard_id_(shard_id),
      rows_(std::move(rows)),
      dataset_rows_(data.num_rows()),
      local_(data.Select(rows_)),
      local_rows_(LocalRows(rows_.size())),
      cost_model_(cost_model),
      options_(std::move(options)),
      plan_cache_(serve::ShardedPlanCache::Options{kPlanCacheCapacity,
                                                   /*shards=*/1}) {
  if (options_.acquisition_faults.any()) {
    // Faults are keyed by global row id, so a row's faults do not depend on
    // its shard. Its attempt-0 outcomes are drawn here, once, positioned
    // over the local rows every request executes and keyed by their global
    // ids.
    faults_ = std::make_unique<const FaultRealization>(
        FaultInjector(options_.acquisition_faults), local_rows_,
        local_.schema().num_attributes(), rows_);
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    m_.requests = &reg.GetCounter("dist.shard.requests");
    m_.cache_hits = &reg.GetCounter("dist.shard.cache_hits");
    m_.plan_decodes = &reg.GetCounter("dist.shard.plan_decodes");
    m_.plan_rejects = &reg.GetCounter("dist.shard.plan_rejects");
    m_.refused = &reg.GetCounter("dist.shard.refused");
    m_.exec_seconds = &reg.GetHistogram("dist.shard.exec_seconds");
  }
}

std::future<ShardReply> ExecutorShard::Submit(ShardRequest request,
                                              obs::SpanContext parent) {
  auto promise = std::make_shared<std::promise<ShardReply>>();
  std::future<ShardReply> fut = promise->get_future();
  pool_.Submit([this, request = std::move(request), parent,
                promise](size_t /*worker*/) mutable {
    promise->set_value(Handle(request, parent));
  });
  return fut;
}

ShardReply ExecutorShard::Handle(const ShardRequest& request,
                                 obs::SpanContext parent) {
  const uint64_t t0 = obs::MonotonicNowNs();
  std::optional<obs::TraceRecorder::RequestScope> scope;
  if (options_.tracer != nullptr) {
    // The coordinator span rides in as the cross-worker parent: every span
    // this shard records (worker-namespaced ids, span.h) joins the request
    // trace instead of forming an orphaned per-worker tree.
    scope.emplace(options_.tracer, options_.trace_worker, parent.trace_id,
                  parent.span_id);
    obs::SetRequestPlanContext(request.key);
  }
  CAQP_OBS_SPAN(handle_span, "shard.handle");

  if (options_.delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.delay_seconds));
  }

  const uint64_t seq = served_.fetch_add(1, std::memory_order_relaxed);
  if (options_.kill_after >= 0 &&
      seq >= static_cast<uint64_t>(options_.kill_after) &&
      !killed_by_schedule_.load(std::memory_order_acquire)) {
    killed_by_schedule_.store(true, std::memory_order_release);
    dead_.store(true, std::memory_order_release);
  }

  ShardReply reply;
  const auto finish = [&]() {
    reply.exec_seconds =
        static_cast<double>(obs::MonotonicNowNs() - t0) * 1e-9;
    if (m_.requests != nullptr) {
      m_.requests->Increment();
      if (reply.plan_cache_hit) m_.cache_hits->Increment();
      m_.exec_seconds->Record(reply.exec_seconds);
    }
    return reply;
  };

  if (!alive()) {
    if (m_.refused != nullptr) m_.refused->Increment();
    reply.status = Status::ShardUnavailable(
        "shard " + std::to_string(shard_id_) + " is down");
    return finish();
  }

  CAQP_CHECK(request.verdicts != nullptr &&
             request.verdicts->size() == dataset_rows_);
  std::shared_ptr<const CompiledPlan> plan = plan_cache_.Get(request.key);
  reply.plan_cache_hit = plan != nullptr;
  if (plan == nullptr) {
    CAQP_OBS_SPAN(decode_span, "shard.plan_decode");
    CAQP_CHECK(request.plan_bytes != nullptr);
    Result<CompiledPlan> decoded =
        DeserializeCompiledPlan(*request.plan_bytes, local_.schema());
    if (!decoded.ok()) {
      // Corrupt plan bytes degrade like a down shard: old cached plans stay
      // installed (mote semantics, net/mote.h), nothing partial executes.
      if (m_.plan_rejects != nullptr) m_.plan_rejects->Increment();
      reply.status = decoded.status();
      return finish();
    }
    plan = std::make_shared<const CompiledPlan>(std::move(decoded).value());
    plan_cache_.Put(request.key, plan);
    if (m_.plan_decodes != nullptr) m_.plan_decodes->Increment();
  }

  ExecutionProfile* profile = nullptr;
  if (options_.calibration != nullptr) {
    profile = options_.calibration->Profile(options_.calibration_shard,
                                            request.key, plan);
  }

  {
    CAQP_OBS_SPAN(exec_span, "shard.exec");
    // One columnar scan for every fault profile. Without a fault injector
    // acquisition is infallible and the per-row merge reduces to: verdict3
    // = exists-a-match, costs/acquisitions sum, acquired unions. In fault
    // mode the stats also carry the Unknown/aborted rows, retries and the
    // failed union, and the row-order cost sum still matches the per-row
    // merge bitwise. The scan runs over the shard's own copy, local rows
    // 0..n-1, which take the masked engine where the CPU has one.
    ColumnarBatchExecutor exec(*plan, local_, cost_model_);
    BatchExecOptions batch_options;
    batch_options.profile = profile;
    batch_options.faults = faults_.get();
    batch_options.policy = options_.row_policy;
    const BatchExecutionStats stats =
        exec.Execute(local_rows_, &verdict_scratch_, batch_options);
    ExecutionResult partial;
    partial.verdict3 = stats.matches > 0   ? Truth::kTrue
                       : stats.unknown > 0 ? Truth::kUnknown
                                           : Truth::kFalse;
    partial.verdict = stats.matches > 0;
    partial.aborted = stats.aborted > 0;
    partial.cost = stats.total_cost;
    partial.acquisitions = static_cast<int>(stats.total_acquisitions);
    partial.retries = static_cast<int>(stats.total_retries);
    partial.acquired = stats.acquired;
    partial.failed = stats.failed;
    // In place, into the query's buffer, in dataset row order (the file
    // comment in shard.h): local row j is dataset row rows_[j].
    std::vector<Truth>& out = *request.verdicts;
    for (size_t j = 0; j < rows_.size(); ++j) {
      out[rows_[j]] = static_cast<Truth>(verdict_scratch_[j]);
    }
    reply.rows_written = rows_.size();
    reply.matches = stats.matches;
    reply.unknown_rows = stats.unknown;
    reply.result_bytes = SerializeExecutionResult(partial);
    if (corrupt_next_.exchange(false, std::memory_order_acq_rel)) {
      reply.result_bytes.push_back(0);  // trailing bytes fail decoding
    }
  }
  reply.status = Status::OK();
  return finish();
}

}  // namespace caqp::dist
