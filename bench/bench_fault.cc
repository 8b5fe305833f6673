// Degradation-policy study under sensor faults: what do transient
// acquisition failures cost, and what does each DegradationPolicy buy back?
//
// Runs the garden workload (conditional plan trained on the train split)
// over the test split while a FaultInjector fails each acquisition attempt
// with probability 0%, 1%, 5% and 10%. For every rate each policy is
// measured against the fault-free baseline:
//
//   unknown   propagate Unknown unless remaining conjuncts decide the verdict
//   retry3    up to 3 attempts per acquisition, then degrade like unknown
//   abort     first failure aborts the epoch
//
// Reported per (rate, policy): fraction of tuples with a defined verdict,
// defined verdicts that disagree with ground truth (must be 0 — degradation
// may lose answers, never corrupt them), retries per tuple, acquisition
// cost per tuple, and the energy overhead vs the no-fault run.
//
// A second section is the columnar-under-faults bar: at 5% transient faults
// with Retry(3), the fault-mode ColumnarBatchExecutor against per-row
// ExecutePlan over a row-keyed FaultyAcquisitionSource (what dist shards
// ran per row before fault mode existed), single-threaded, best pass over
// the test split, instrumentation at its default on both sides. The
// columnar side runs as a dist shard does: over a FaultRealization of its
// rows, built once beside the executor and outside the timed passes (its
// build time is printed and exported as bench.fault.realization_build_us),
// so clean rows take the fault-free kernels. Both must produce identical
// per-row verdicts and identical totals (cost to the bit), and the columnar
// path must be >= kColumnarBar times faster; the ratio is exported as the
// bench.fault.columnar_speedup gauge.
//
// Exit status 1 on any corrupted verdict, a columnar/per-row disagreement,
// or a missed columnar bar.
//
// --json-out <path> writes the obs metrics registry (bench_util.h);
// results/bench_fault.csv gets one row per (rate, policy).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/garden_gen.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/split_points.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

namespace {

constexpr uint64_t kFaultSeed = 20050405;
constexpr size_t kMaxTuples = 8000;
/// Columnar-bar timing: kRounds alternating rounds of kReps passes per
/// side, best-of. Alternating spreads both sides over the same stretch of
/// host load; repeating within a round keeps each side's best pass warm.
constexpr size_t kRounds = 5;
constexpr size_t kReps = 3;
constexpr double kColumnarBar = 3.0;

struct PolicyRun {
  std::string name;
  DegradationPolicy policy;
};

struct RunStats {
  size_t tuples = 0;
  size_t defined = 0;
  size_t mismatches = 0;  ///< defined verdicts disagreeing with ground truth
  size_t retries = 0;
  double cost = 0.0;
};

/// Executes `plan` over every test tuple with faults at `transient_rate`.
/// Draws are keyed by row, so every policy sees the same fault at the same
/// row and attribute.
RunStats RunPass(const CompiledPlan& plan, const Schema& schema,
                 const AcquisitionCostModel& cm, const Query& query,
                 const Dataset& test, double transient_rate,
                 const DegradationPolicy& policy) {
  FaultSpec spec;
  spec.transient = transient_rate;
  spec.seed = kFaultSeed;
  const FaultInjector injector(spec);

  RunStats out;
  const size_t rows = std::min<size_t>(kMaxTuples, test.num_rows());
  for (size_t row = 0; row < rows; ++row) {
    const Tuple tuple = test.GetTuple(static_cast<RowId>(row));
    TupleSource base(tuple);
    FaultyAcquisitionSource source(base, injector);
    source.SetRow(static_cast<RowId>(row));
    const ExecutionResult res =
        ExecutePlan(plan, schema, cm, source, /*trace=*/nullptr, policy);
    ++out.tuples;
    out.cost += res.cost;
    out.retries += static_cast<size_t>(res.retries);
    if (res.defined()) {
      ++out.defined;
      out.mismatches += res.verdict != query.Matches(tuple);
    }
  }
  return out;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ColumnarBar {
  double per_row_ns = 0.0;   ///< per-row ExecutePlan, ns per row
  double columnar_ns = 0.0;  ///< fault-mode columnar, ns per row
  double realization_build_us = 0.0;  ///< FaultRealization construction
  size_t verdict_mismatches = 0;
  bool totals_match = false;
  size_t unknown = 0;
  size_t retries = 0;
};

/// Times both fault paths over every test row (see file comment).
ColumnarBar TimeColumnarUnderFaults(const CompiledPlan& plan,
                                    const Dataset& test,
                                    const AcquisitionCostModel& cm) {
  FaultSpec spec;
  spec.transient = 0.05;
  spec.seed = kFaultSeed;
  const DegradationPolicy policy = DegradationPolicy::Retry(3);
  const size_t rows = test.num_rows();
  std::vector<RowId> ids(rows);
  for (RowId r = 0; r < rows; ++r) ids[r] = r;

  RowSource base(test);
  const FaultInjector injector(spec);
  FaultyAcquisitionSource source(base, injector);
  const auto build_start = std::chrono::steady_clock::now();
  const FaultRealization faults(FaultInjector(spec), ids,
                                test.schema().num_attributes());
  const double realization_build_s = Seconds(build_start);
  ColumnarBatchExecutor exec(plan, test, cm);
  BatchExecOptions opts;
  opts.faults = &faults;
  opts.policy = policy;

  std::vector<uint8_t> per_row_verdicts(rows);
  std::vector<uint8_t> columnar_verdicts;
  BatchExecutionStats per_row;
  BatchExecutionStats columnar;
  double per_row_best = 1e300;
  double columnar_best = 1e300;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t rep = 0; rep < kReps; ++rep) {
      per_row = BatchExecutionStats{};
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < rows; ++i) {
        base.SetRow(ids[i]);
        source.SetRow(ids[i]);
        const ExecutionResult r = ExecutePlan(plan, test.schema(), cm, source,
                                              /*trace=*/nullptr, policy);
        per_row_verdicts[i] = static_cast<uint8_t>(r.verdict3);
        per_row.total_cost += r.cost;
        per_row.total_acquisitions += static_cast<size_t>(r.acquisitions);
        per_row.total_retries += static_cast<size_t>(r.retries);
        per_row.unknown += r.verdict3 == Truth::kUnknown;
      }
      per_row_best = std::min(per_row_best, Seconds(t0));
    }
    for (size_t rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      columnar = exec.Execute(ids, &columnar_verdicts, opts);
      columnar_best = std::min(columnar_best, Seconds(t0));
    }
  }

  ColumnarBar out;
  out.per_row_ns = per_row_best * 1e9 / static_cast<double>(rows);
  out.columnar_ns = columnar_best * 1e9 / static_cast<double>(rows);
  out.realization_build_us = realization_build_s * 1e6;
  for (size_t i = 0; i < rows; ++i) {
    out.verdict_mismatches += per_row_verdicts[i] != columnar_verdicts[i];
  }
  out.totals_match = per_row.total_cost == columnar.total_cost &&
                     per_row.total_acquisitions ==
                         columnar.total_acquisitions &&
                     per_row.total_retries == columnar.total_retries &&
                     per_row.unknown == columnar.unknown;
  out.unknown = columnar.unknown;
  out.retries = columnar.total_retries;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_fault", argc, argv);

  GardenDataOptions dopts;
  dopts.num_motes = 3;
  dopts.epochs = 20000;
  const Dataset data = GenerateGardenData(dopts);
  const Schema& schema = data.schema();
  const auto [train, test] = data.SplitFraction(0.6);
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  Conjunct preds;
  for (AttrId a : attrs.temperature) preds.emplace_back(a, 5, 11);
  for (AttrId a : attrs.humidity) preds.emplace_back(a, 5, 11);
  const Query query = Query::Conjunction(std::move(preds));

  DatasetEstimator estimator(train);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver greedyseq;
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &greedyseq;
  gopts.max_splits = 5;
  GreedyPlanner planner(estimator, cost_model, gopts);
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(query));

  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.10};
  const std::vector<PolicyRun> policies = {
      {"unknown", DegradationPolicy::UnknownVerdict()},
      {"retry3", DegradationPolicy::Retry(3)},
      {"abort", DegradationPolicy::Abort()},
  };

  bench::Banner("degradation policies under transient faults (garden)");
  std::printf("%-6s %-8s %9s %10s %12s %10s %9s\n", "rate", "policy",
              "defined%", "mismatch", "retries/tup", "cost/tup", "overhead");

  // The 0% x unknown pass is the fault-free baseline everything is
  // normalized against (all policies are identical when nothing fails).
  double baseline_cost_per_tuple = 0.0;
  std::vector<std::string> csv_rows;
  size_t total_mismatches = 0;
  for (double rate : rates) {
    for (const PolicyRun& pr : policies) {
      if (rate == 0.0 && pr.name != "unknown") continue;
      const RunStats st = RunPass(plan, schema, cost_model, query, test, rate,
                                  pr.policy);
      const double n = static_cast<double>(st.tuples);
      const double cost_per_tuple = st.cost / n;
      if (rate == 0.0) baseline_cost_per_tuple = cost_per_tuple;
      const double defined_pct =
          100.0 * static_cast<double>(st.defined) / n;
      const double overhead = cost_per_tuple / baseline_cost_per_tuple;
      total_mismatches += st.mismatches;
      std::printf("%-6.2f %-8s %8.2f%% %10zu %12.3f %10.1f %8.2fx\n", rate,
                  pr.name.c_str(), defined_pct, st.mismatches,
                  static_cast<double>(st.retries) / n, cost_per_tuple,
                  overhead);
      char row[256];
      std::snprintf(row, sizeof(row), "%.2f,%s,%.4f,%zu,%.4f,%.2f,%.4f",
                    rate, pr.name.c_str(), defined_pct / 100.0,
                    st.mismatches, static_cast<double>(st.retries) / n,
                    cost_per_tuple, overhead);
      csv_rows.emplace_back(row);
      // Dynamic metric names, so bypass the per-call-site macro cache.
      const std::string prefix =
          "bench.fault." + pr.name + "." +
          std::to_string(static_cast<int>(rate * 100 + 0.5));
      obs::DefaultRegistry()
          .GetGauge(prefix + ".defined_fraction")
          .Set(defined_pct / 100.0);
      obs::DefaultRegistry().GetGauge(prefix + ".cost_overhead").Set(overhead);
    }
  }
  bench::WriteCsv("bench_fault",
                  "rate,policy,defined_fraction,mismatches,retries_per_tuple,"
                  "cost_per_tuple,cost_overhead",
                  csv_rows);

  std::printf("\ndegradation never corrupts: %zu defined-verdict "
              "mismatches across all runs%s\n",
              total_mismatches, total_mismatches == 0 ? " (PASS)" : " (FAIL)");

  bench::Banner("columnar under faults (5% transient, retry3, 1 thread)");
  const ColumnarBar bar = TimeColumnarUnderFaults(plan, test, cost_model);
  const double speedup = bar.per_row_ns / bar.columnar_ns;
  std::printf("per-row ExecutePlan %8.1f ns/row\n", bar.per_row_ns);
  std::printf("columnar fault mode %8.1f ns/row  (%.2fx, bar >= %.1fx)\n",
              bar.columnar_ns, speedup, kColumnarBar);
  std::printf("fault realization   %8.1f us to build, once\n",
              bar.realization_build_us);
  std::printf("%zu rows, %zu unknown, %zu retries; %zu verdict mismatches, "
              "totals %s\n",
              test.num_rows(), bar.unknown, bar.retries,
              bar.verdict_mismatches,
              bar.totals_match ? "identical" : "DIFFER");
  obs::MetricsRegistry& reg = obs::DefaultRegistry();
  reg.GetGauge("bench.fault.columnar_speedup").Set(speedup);
  reg.GetGauge("bench.fault.columnar_ns_per_row").Set(bar.columnar_ns);
  reg.GetGauge("bench.fault.per_row_ns_per_row").Set(bar.per_row_ns);
  reg.GetGauge("bench.fault.realization_build_us")
      .Set(bar.realization_build_us);
  const bool columnar_ok = bar.verdict_mismatches == 0 && bar.totals_match &&
                           speedup >= kColumnarBar;
  std::printf("columnar-under-faults bar%s\n",
              columnar_ok ? " (PASS)" : " (FAIL)");
  bench::FinishBench();
  return total_mismatches == 0 && columnar_ok ? 0 : 1;
}
