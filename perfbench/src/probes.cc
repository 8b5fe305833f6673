#include "probes.h"

#include <random>

#include "core/query_signature.h"
#include "exec/batch_executor.h"
#include "plan/plan_serde.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kProbeSeconds = 0.2;

/// Keeps probe results observable so the timed calls are not elided.
volatile double g_sink = 0.0;

/// Acquisition straight from a dataset row, swapped per tuple.
class RowSource : public caqp::AcquisitionSource {
 public:
  explicit RowSource(const caqp::Dataset& data) : data_(data) {}
  void SetRow(caqp::RowId row) { row_ = row; }
  caqp::AcquiredValue Acquire(caqp::AttrId attr) override {
    return data_.at(row_, attr);
  }

 private:
  const caqp::Dataset& data_;
  caqp::RowId row_ = 0;
};

/// Runs `round` (which returns the units of work it did) until the budget
/// is spent; returns nanoseconds per unit.
template <typename Round>
double NsPerUnit(Round&& round) {
  const Clock::time_point t0 = Clock::now();
  double units = 0.0;
  double elapsed = 0.0;
  for (size_t k = 0; elapsed < kProbeSeconds; ++k) {
    units += static_cast<double>(round(k));
    elapsed = SecondsSince(t0);
  }
  return elapsed * 1e9 / units;
}

}  // namespace

double ProbeSignatureNs(const std::vector<caqp::Query>& queries,
                        uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x736967ULL);
  std::vector<caqp::Query> variants;
  for (size_t i = 0; i < 1024; ++i) {
    variants.push_back(Reshuffled(queries[i % queries.size()], rng));
  }
  return NsPerUnit([&](size_t) {
    uint64_t acc = 0;
    for (const caqp::Query& q : variants) acc ^= caqp::QuerySignature(q);
    g_sink = g_sink + static_cast<double>(acc & 1);
    return variants.size();
  });
}

double ProbeSerializeUs(const PlanList& plans) {
  constexpr size_t kWindow = 64;
  return 1e-3 * NsPerUnit([&](size_t k) {
           size_t bytes = 0;
           for (size_t i = 0; i < kWindow; ++i) {
             bytes += caqp::SerializePlan(
                          *plans[(k * kWindow + i) % plans.size()])
                          .size();
           }
           g_sink = g_sink + static_cast<double>(bytes);
           return kWindow;
         });
}

double ProbeScalarNsPerTuple(const PlanList& plans, const caqp::Dataset& data,
                             std::span<const caqp::RowId> rows,
                             const caqp::AcquisitionCostModel& cost_model) {
  constexpr size_t kWindow = 256;
  RowSource source(data);
  return NsPerUnit([&](size_t k) {
    const caqp::CompiledPlan& plan = *plans[k % plans.size()];
    double cost = 0.0;
    for (size_t i = 0; i < kWindow; ++i) {
      source.SetRow(rows[(k * kWindow + i) % rows.size()]);
      cost += caqp::ExecutePlan(plan, data.schema(), cost_model, source).cost;
    }
    g_sink = g_sink + cost;
    return kWindow;
  });
}

double ProbeColumnarNsPerRow(
    const PlanList& plans, const caqp::Dataset& data,
    const std::vector<std::vector<caqp::RowId>>& row_sets,
    const caqp::AcquisitionCostModel& cost_model) {
  std::vector<uint8_t> verdicts;
  return NsPerUnit([&](size_t k) {
    const caqp::CompiledPlan& plan = *plans[k % plans.size()];
    size_t rows = 0;
    for (const std::vector<caqp::RowId>& set : row_sets) {
      // One executor per call, as a shard builds one per request.
      caqp::ColumnarBatchExecutor exec(plan, data, cost_model);
      g_sink = g_sink + exec.Execute(set, &verdicts).total_cost;
      rows += set.size();
    }
    return rows;
  });
}

double ProbeFaultyNsPerRow(const PlanList& plans, const caqp::Dataset& data,
                           std::span<const caqp::RowId> rows,
                           const caqp::AcquisitionCostModel& cost_model,
                           const caqp::FaultSpec& faults,
                           const caqp::DegradationPolicy& policy) {
  constexpr size_t kWindow = 1024;
  RowSource base(data);
  caqp::FaultInjector injector(faults);
  caqp::FaultyAcquisitionSource source(base, injector);
  return NsPerUnit([&](size_t k) {
    const caqp::CompiledPlan& plan = *plans[k % plans.size()];
    double cost = 0.0;
    for (size_t i = 0; i < kWindow; ++i) {
      base.SetRow(rows[(k * kWindow + i) % rows.size()]);
      cost += caqp::ExecutePlan(plan, data.schema(), cost_model, source,
                                /*trace=*/nullptr, policy)
                  .cost;
    }
    g_sink = g_sink + cost;
    return kWindow;
  });
}

caqp::FaultSpec FaultProfile(uint64_t seed) {
  caqp::FaultSpec spec;
  spec.transient = 0.05;
  spec.seed = seed ^ 0x6661756c74ULL;
  return spec;
}

caqp::DegradationPolicy FaultPolicy() {
  return caqp::DegradationPolicy::Retry(/*max_attempts=*/3);
}

void AddBuildMetrics(BuildStats& stats, uint64_t builds_in_window,
                     MetricSet* out) {
  std::lock_guard<std::mutex> lock(stats.mu);
  const Percentiles ms = Summarize(stats.build_ms);
  PrintPercentiles("plan build ms (every build)", ms);
  const double builds =
      static_cast<double>(std::max<size_t>(stats.build_ms.size(), 1));
  out->Add("opt.builds", static_cast<double>(builds_in_window), "count");
  out->Add("opt.build_ms.p50", ms.p50, "ms");
  out->Add("opt.build_ms.p99", ms.p99, "ms");
  out->Add("prob.marginal.calls",
           static_cast<double>(stats.marginal_calls) / builds, "calls/build");
  out->Add("prob.predicate_masks.calls",
           static_cast<double>(stats.mask_calls) / builds, "calls/build");
  out->Add("prob.per_value_masks.calls",
           static_cast<double>(stats.per_value_calls) / builds,
           "calls/build");
  out->Add("prob.reach.calls", static_cast<double>(stats.reach_calls) / builds,
           "calls/build");
  out->Add("prob.busy_share",
           stats.build_ns > 0.0 ? stats.estimator_ns / stats.build_ns : 0.0,
           "ratio");
}

void AddProbeMetrics(const Scenario& s, const PlanList& plans,
                     std::span<const caqp::RowId> rows,
                     const std::vector<std::vector<caqp::RowId>>& row_sets,
                     uint64_t seed, MetricSet* out) {
  double splits = 0.0;
  double bytes = 0.0;
  for (const auto& plan : plans) {
    splits += static_cast<double>(plan->NumSplits());
    bytes += static_cast<double>(caqp::PlanSizeBytes(*plan));
  }
  const double n = static_cast<double>(plans.size());
  out->Add("plan.splits_mean", splits / n, "splits");
  out->Add("plan.wire_bytes", bytes / n, "bytes");
  out->Add("core.signature_ns", ProbeSignatureNs(s.queries, seed), "ns");
  out->Add("plan.serialize_us", ProbeSerializeUs(plans), "us");
  out->Add("exec.scalar_ns_per_tuple",
           ProbeScalarNsPerTuple(plans, s.data, rows, *s.cost_model),
           "ns/tuple");
  out->Add("exec.columnar_ns_per_row",
           ProbeColumnarNsPerRow(plans, s.data, row_sets, *s.cost_model),
           "ns/row");
  out->Add("exec.faulty_ns_per_row",
           ProbeFaultyNsPerRow(plans, s.data, rows, *s.cost_model,
                               FaultProfile(seed), FaultPolicy()),
           "ns/row");
}

}  // namespace perfbench
