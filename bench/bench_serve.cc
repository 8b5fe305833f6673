// Serving-layer throughput: plan cache + single-flight vs plan-per-query.
//
// Replays the same repeated-query workload (distinct queries « requests,
// the regime a deployed basestation sees: a handful of standing monitoring
// queries asked over and over) through two QueryService configurations:
//
//   cached      sharded plan cache + single-flight planning
//   per-query   cache capacity 0 — every request runs BuildPlan itself
//
// The acceptance bar is cached >= 5x per-query throughput: amortizing the
// planner (a fraction of a millisecond per GreedyPlan build on this data,
// most of it GreedySeq solving, the rest estimator counting) over cache hits
// (microseconds of tree traversal) is the whole point of caqp::serve.
// Also measures a cold burst of one query from many clients to show
// single-flight collapses the thundering herd to one build.
//
// --json-out <path> writes the obs metrics registry (bench_util.h).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/query_signature.h"
#include "data/synthetic_gen.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "prob/dataset_estimator.h"
#include "serve/query_service.h"

using namespace caqp;

namespace {

constexpr size_t kWorkers = 4;
constexpr size_t kClients = 8;
constexpr size_t kDistinct = 12;
constexpr size_t kRequests = 4000;
constexpr uint64_t kSeed = 20050405;

struct Scenario {
  Dataset data;
  Dataset train;
  Dataset test;
  std::unique_ptr<PerAttributeCostModel> cost_model;
  std::unique_ptr<SplitPointSet> splits;
  std::vector<Query> workload;
};

Scenario MakeScenario() {
  SyntheticDataOptions dopts;
  dopts.n = 10;
  dopts.gamma = 4;
  dopts.sel = 0.6;
  dopts.tuples = 20000;
  dopts.seed = kSeed;
  Scenario s{GenerateSyntheticData(dopts), Dataset(Schema{}),
             Dataset(Schema{}), nullptr, nullptr, {}};
  auto [train, test] = s.data.SplitFraction(0.6);
  s.train = std::move(train);
  s.test = std::move(test);
  const Schema& schema = s.data.schema();
  s.cost_model = std::make_unique<PerAttributeCostModel>(schema);
  s.splits = std::make_unique<SplitPointSet>(SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes())));

  std::mt19937_64 rng(kSeed);
  std::vector<uint64_t> sigs;
  const size_t n = schema.num_attributes();
  while (s.workload.size() < kDistinct) {
    std::vector<AttrId> attrs(n);
    for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
    std::shuffle(attrs.begin(), attrs.end(), rng);
    const size_t arity = 3 + rng() % (n - 2);
    Conjunct preds;
    for (size_t i = 0; i < arity; ++i) {
      const Value v =
          static_cast<Value>(rng() % schema.domain_size(attrs[i]));
      preds.emplace_back(attrs[i], v, v, /*negated=*/rng() % 4 == 0);
    }
    Query q = Query::Conjunction(std::move(preds));
    const uint64_t sig = QuerySignature(q);
    if (std::find(sigs.begin(), sigs.end(), sig) != sigs.end()) continue;
    sigs.push_back(sig);
    s.workload.push_back(std::move(q));
  }
  return s;
}

class BenchPlanBuilder : public serve::PlanBuilder {
 public:
  explicit BenchPlanBuilder(const Scenario& s) : estimator_(s.train) {
    GreedyPlanner::Options gopts;
    gopts.split_points = s.splits.get();
    gopts.seq_solver = &greedyseq_;
    gopts.max_splits = 5;
    planner_ = std::make_unique<GreedyPlanner>(estimator_, *s.cost_model,
                                               gopts);
  }
  Plan Build(const Query& query) override {
    return planner_->BuildPlan(query);
  }
  uint64_t ConfigFingerprint() const override { return 0x6265'6e63'68ULL; }

 private:
  DatasetEstimator estimator_;
  GreedySeqSolver greedyseq_;
  std::unique_ptr<GreedyPlanner> planner_;
};

struct ReplayResult {
  double elapsed_seconds = 0.0;
  double rps = 0.0;
  size_t planned = 0;  ///< requests that ran BuildPlan
  serve::ShardedPlanCache::Stats cache;
};

ReplayResult Replay(const Scenario& s, size_t cache_capacity) {
  serve::QueryService::Options sopts;
  sopts.num_workers = kWorkers;
  sopts.cache_capacity = cache_capacity;
  serve::QueryService service(
      s.data.schema(), *s.cost_model,
      [&] { return std::make_unique<BenchPlanBuilder>(s); }, sopts);

  std::vector<std::thread> clients;
  std::vector<size_t> planned(kClients, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(kSeed ^ (0xc1u + c));
      const size_t quota =
          kRequests / kClients + (c < kRequests % kClients);
      for (size_t r = 0; r < quota; ++r) {
        Conjunct preds = s.workload[rng() % s.workload.size()].predicates();
        std::shuffle(preds.begin(), preds.end(), rng);
        Tuple tuple =
            s.test.GetTuple(static_cast<RowId>(rng() % s.test.num_rows()));
        planned[c] += service
                          .SubmitAndWait(Query::Conjunction(std::move(preds)),
                                         std::move(tuple))
                          .planned;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ReplayResult r;
  r.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.rps = static_cast<double>(kRequests) / r.elapsed_seconds;
  for (size_t c = 0; c < kClients; ++c) r.planned += planned[c];
  r.cache = service.cache().stats();
  return r;
}

/// Cold burst: every client submits the SAME query at once. With
/// single-flight exactly one request plans; the rest share the result.
size_t ColdBurstBuilds(const Scenario& s) {
  serve::QueryService::Options sopts;
  sopts.num_workers = kWorkers;
  serve::QueryService service(
      s.data.schema(), *s.cost_model,
      [&] { return std::make_unique<BenchPlanBuilder>(s); }, sopts);
  std::vector<std::future<serve::QueryService::Response>> futures;
  const Tuple tuple = s.test.GetTuple(0);
  for (size_t i = 0; i < 2 * kWorkers; ++i) {
    futures.push_back(service.Submit(s.workload[0], tuple));
  }
  size_t builds = 0;
  for (auto& f : futures) builds += f.get().planned;
  return builds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_serve", argc, argv);
  bench::Banner("serving layer: plan cache + single-flight vs plan-per-query");

  Scenario s = MakeScenario();
  std::printf("%zu distinct queries, %zu requests, %zu clients, %zu workers\n",
              kDistinct, kRequests, kClients, kWorkers);

  // Warm-up (and JIT the page cache / frequency) with a short cached run.
  Replay(s, /*cache_capacity=*/1024);

  const ReplayResult cached = Replay(s, /*cache_capacity=*/1024);
  const ReplayResult per_query = Replay(s, /*cache_capacity=*/0);
  const size_t burst_builds = ColdBurstBuilds(s);

  std::printf("\n%-12s %10s %12s %10s\n", "config", "elapsed", "throughput",
              "plans");
  std::printf("%-12s %9.3fs %9.0f r/s %10zu\n", "cached",
              cached.elapsed_seconds, cached.rps, cached.planned);
  std::printf("%-12s %9.3fs %9.0f r/s %10zu\n", "per-query",
              per_query.elapsed_seconds, per_query.rps, per_query.planned);

  const double speedup = cached.rps / per_query.rps;
  std::printf("\nspeedup: %.1fx  (bar: >= 5x)\n", speedup);
  std::printf("cold burst of %zu identical requests ran %zu builds "
              "(bar: 1)\n", 2 * kWorkers, burst_builds);

  CAQP_OBS_GAUGE_SET("bench_serve.cached_rps", cached.rps);
  CAQP_OBS_GAUGE_SET("bench_serve.per_query_rps", per_query.rps);
  CAQP_OBS_GAUGE_SET("bench_serve.speedup", speedup);
  CAQP_OBS_GAUGE_SET("bench_serve.cold_burst_builds",
                     static_cast<double>(burst_builds));

  bench::WriteCsv("serve_throughput", "config,elapsed_s,rps,plans",
                  {"cached," + std::to_string(cached.elapsed_seconds) + "," +
                       std::to_string(cached.rps) + "," +
                       std::to_string(cached.planned),
                   "per-query," + std::to_string(per_query.elapsed_seconds) +
                       "," + std::to_string(per_query.rps) + "," +
                       std::to_string(per_query.planned)});
  bench::FinishBench();
  return speedup >= 5.0 && burst_builds == 1 ? 0 : 1;
}
