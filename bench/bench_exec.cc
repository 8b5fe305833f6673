// Executor hot path: flat per-tuple iteration vs columnar batch execution.
//
// The columnar batch executor exists so batch consumers (dist shards, the
// simulator) never pay per-tuple dispatch at all. This bench quantifies it
// on the garden workload (the paper's deployment scenario): plan every
// query with the heuristic planner, then execute the test split two ways --
//
//   flat   ExecuteBatch(const CompiledPlan&)  iterative over the node array,
//                                          first-acquisition flags, reused
//                                          scratch across tuples
//   batch  ColumnarBatchExecutor::Execute  selection-vector kernels over
//                                          column slices, statically
//                                          precomputed marginal costs
//
// Acceptance bar: batch >= 4x flat on per-tuple latency, with both paths
// agreeing on total acquisition cost to the bit. A second section replays a
// repeated-query workload through a cached QueryService and asserts the hot
// path performs zero PlanNode clones end to end.
//
// --json-out <path> writes the obs metrics registry (bench_util.h).

#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "bench_util.h"
#include "data/garden_gen.h"
#include "data/workload.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "plan/compiled_plan.h"
#include "prob/dataset_estimator.h"
#include "serve/query_service.h"

using namespace caqp;

namespace {

constexpr size_t kQueries = 12;
constexpr size_t kReps = 5;  ///< timed passes over the test split, best-of
constexpr uint64_t kSeed = 20050405;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ExecTiming {
  double flat_ns_per_tuple = 0.0;
  double batch_ns_per_tuple = 0.0;
  double batch_checksum = 0.0;  ///< flat vs columnar total-cost agreement
};

/// Times one plan both ways over every test tuple, best-of-kReps.
ExecTiming TimePlan(const CompiledPlan& flat, const Dataset& test,
                    const AcquisitionCostModel& cm) {
  const size_t rows = test.num_rows();
  std::vector<RowId> ids(rows);
  for (RowId r = 0; r < rows; ++r) ids[r] = r;

  // Built once outside the timed reps, like a shard would hold it: the
  // constructor's per-node cost precomputation and scratch allocation
  // amortize over every batch the plan ever executes.
  ColumnarBatchExecutor batch_exec(flat, test, cm);

  ExecTiming out;
  double flat_best = 1e300, batch_best = 1e300;
  double flat_cost = 0.0, batch_cost = 0.0;
  for (size_t rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    const BatchExecutionStats stats = ExecuteBatch(flat, test, ids, cm);
    flat_best = std::min(flat_best, Seconds(t0));
    flat_cost = stats.total_cost;

    t0 = std::chrono::steady_clock::now();
    const BatchExecutionStats batch_stats = batch_exec.Execute(ids);
    batch_best = std::min(batch_best, Seconds(t0));
    batch_cost = batch_stats.total_cost;
  }
  out.flat_ns_per_tuple = flat_best * 1e9 / static_cast<double>(rows);
  out.batch_ns_per_tuple = batch_best * 1e9 / static_cast<double>(rows);
  out.batch_checksum = flat_cost - batch_cost;  // bit-identical => 0
  return out;
}

class BenchPlanBuilder : public serve::PlanBuilder {
 public:
  BenchPlanBuilder(CondProbEstimator& est, const AcquisitionCostModel& cm,
                   const SplitPointSet& splits, const SequentialSolver& solver)
      : est_(est) {
    GreedyPlanner::Options gopts;
    gopts.split_points = &splits;
    gopts.seq_solver = &solver;
    gopts.max_splits = 5;
    planner_ = std::make_unique<GreedyPlanner>(est_, cm, gopts);
  }
  Plan Build(const Query& query) override { return planner_->BuildPlan(query); }
  uint64_t ConfigFingerprint() const override { return 0x65'78'65'63ULL; }

 private:
  CondProbEstimator& est_;
  std::unique_ptr<GreedyPlanner> planner_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_exec", argc, argv);
  bench::Banner("executor: CompiledPlan flat iteration vs columnar batch");

  GardenDataOptions gopts;
  gopts.num_motes = 5;
  gopts.epochs = 20000;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  GardenQueryOptions qopts;
  qopts.num_queries = kQueries;
  const std::vector<Query> queries = GenerateGardenQueries(
      schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver greedyseq;
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &greedyseq;
  hopts.max_splits = 5;
  GreedyPlanner heuristic(est, cm, hopts);

  std::printf("%zu garden attributes; %zu queries; %zu test tuples; "
              "best of %zu passes\n\n",
              schema.num_attributes(), queries.size(), test.num_rows(), kReps);

  std::printf("%5s %6s %6s %12s %13s %8s\n", "query", "nodes", "depth",
              "flat ns/tup", "batch ns/tup", "b/f");
  std::vector<std::string> rows;
  double flat_total = 0.0, batch_total = 0.0;
  double batch_checksum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const CompiledPlan compiled =
        CompiledPlan::Compile(heuristic.BuildPlan(queries[i]));
    const ExecTiming t = TimePlan(compiled, test, cm);
    flat_total += t.flat_ns_per_tuple;
    batch_total += t.batch_ns_per_tuple;
    batch_checksum += t.batch_checksum;
    std::printf("%5zu %6zu %6zu %12.0f %13.1f %7.2fx\n", i,
                compiled.NumNodes(), compiled.Depth(), t.flat_ns_per_tuple,
                t.batch_ns_per_tuple,
                t.flat_ns_per_tuple / t.batch_ns_per_tuple);
    rows.push_back(std::to_string(i) + "," +
                   std::to_string(compiled.NumNodes()) + "," +
                   std::to_string(t.flat_ns_per_tuple) + "," +
                   std::to_string(t.batch_ns_per_tuple));
  }
  const double batch_speedup = flat_total / batch_total;
  std::printf("\nmean per-tuple latency: flat %.0f ns, batch %.1f ns -> "
              "batch/flat %.2fx (bar: >= 4x)\n",
              flat_total / static_cast<double>(queries.size()),
              batch_total / static_cast<double>(queries.size()),
              batch_speedup);
  if (batch_checksum != 0.0) {
    std::printf("ERROR: flat and columnar batch execution disagree on total "
                "cost (delta %.17g)\n", batch_checksum);
  }

  // -------------------------------------------------------------------------
  // Cached serving end to end: after the single-flight leader compiles the
  // plan into the cache, repeat requests must clone zero PlanNodes.
  // -------------------------------------------------------------------------
  serve::QueryService::Options sopts;
  sopts.num_workers = 4;
  sopts.cache_capacity = 256;
  serve::QueryService service(
      schema, cm,
      [&] {
        return std::make_unique<BenchPlanBuilder>(est, cm, splits, greedyseq);
      },
      sopts);

  std::mt19937_64 rng(kSeed);
  for (const Query& q : queries) {  // warm: one build per distinct query
    service.SubmitAndWait(q, test.GetTuple(0));
  }
  const uint64_t clones_before =
      obs::DefaultRegistry().GetCounter("plan.node_clones").value();
  constexpr size_t kServeRequests = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < kServeRequests; ++r) {
    service.SubmitAndWait(
        queries[rng() % queries.size()],
        test.GetTuple(static_cast<RowId>(rng() % test.num_rows())));
  }
  const double serve_elapsed = Seconds(t0);
  const uint64_t hot_clones =
      obs::DefaultRegistry().GetCounter("plan.node_clones").value() -
      clones_before;
  const double serve_rps = static_cast<double>(kServeRequests) / serve_elapsed;
  std::printf("\ncached serve: %zu requests in %.3fs (%.0f r/s), "
              "%llu PlanNode clones on the hot path (bar: 0)\n",
              kServeRequests, serve_elapsed, serve_rps,
              static_cast<unsigned long long>(hot_clones));

  CAQP_OBS_GAUGE_SET("bench_exec.flat_ns_per_tuple",
                     flat_total / static_cast<double>(queries.size()));
  CAQP_OBS_GAUGE_SET("bench_exec.batch_ns_per_tuple",
                     batch_total / static_cast<double>(queries.size()));
  CAQP_OBS_GAUGE_SET("bench_exec.batch_speedup", batch_speedup);
  CAQP_OBS_GAUGE_SET("bench_exec.cached_serve_rps", serve_rps);
  CAQP_OBS_GAUGE_SET("bench_exec.hot_path_clones",
                     static_cast<double>(hot_clones));

  bench::WriteCsv("exec_latency",
                  "query,nodes,flat_ns_per_tuple,batch_ns_per_tuple", rows);
  bench::FinishBench();
  const bool ok =
      batch_speedup >= 4.0 && hot_clones == 0 && batch_checksum == 0.0;
  return ok ? 0 : 1;
}
