// Distributed serving tier scaling: 4-shard scatter-gather vs 1 shard.
//
// Replays a repeated-query workload (distinct queries « requests — the
// standing-monitoring-query regime) through two Coordinator configurations
// over the same dataset:
//
//   single   1 executor shard — all row work serialized on one thread
//   sharded  4 executor shards (hash partition) — row work fanned out
//
// Both runs take the cached path (plans are warmed first), so the measured
// difference is the scatter-gather execution itself. The acceptance bar is
// sharded >= 2x single-shard throughput. The bar is only enforced when the
// machine has >= 4 hardware threads: shard parallelism cannot beat wall
// clock on fewer cores, so constrained machines report the numbers without
// failing (merge equivalence is always enforced).
//
// Why 2x and not 4x: the four shards share four cores with the coordinator
// and the clients. Every shard scans its own copy of its rows, local rows
// 0..n-1 (dist/shard.h), so Hash(1)'s single shard and each of the four
// hash shards run the same AVX-512 masked engine (exec/batch_masked.h)
// where the CPU has it, at 3.4-3.6 ns/row on this workload's plans (one
// thread, 4-vCPU AVX-512 VM), and the ratio reads about 3x there. The bar
// dates from when a hash shard ran the selection kernels over its
// interleaved global ids at 6.7-7.0 ns/row, which held the ratio near 2x.
// A query costs the single shard ~0.3 ms of row work; the coordinator's
// own share is O(shards) (dist/coordinator.h), ~13 us in a traced run.
//
// Protocol: each config runs fixed-duration rounds of kRoundSeconds, one
// warm-up round each, then kRounds rounds alternating which config goes
// first. The bar reads the median throughput per config. Rounds are timed
// and long because scheduler noise dominates short runs: runs of a few
// hundred milliseconds read anywhere from 0.7x to 1.7x on one machine.
//
// Global obs is disabled during the timed loops: the per-row executor
// macros would funnel every shard thread through the shared default
// registry and measure lock contention instead of scatter-gather. The
// coordinator's own ShardedRegistry metrics (prefetched refs, per-shard
// slots) stay live — they are part of the tier under test.
//
// --json-out <path> writes the obs metrics registry (bench_util.h): the
// per-round and median throughputs and ratios as bench_dist.* gauges.

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
#include "dist/coordinator.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

namespace {

// Clients exceed the shard count so shard threads stay saturated rather
// than latency-bound.
constexpr size_t kClients = 8;
constexpr size_t kDistinct = 10;
constexpr size_t kTuples = 96000;
constexpr double kRoundSeconds = 1.5;
constexpr int kRounds = 5;
constexpr uint64_t kSeed = 20050407;

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
  dopts.tuples = kTuples;
  dopts.seed = kSeed;
  Scenario s{GenerateSyntheticData(dopts), Dataset(Schema{}),
             Dataset(Schema{}), nullptr, nullptr, {}};
  auto [train, test] = s.data.SplitFraction(0.4);
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
  uint64_t ConfigFingerprint() const override { return 0x6469'7374ULL; }

 private:
  DatasetEstimator estimator_;
  GreedySeqSolver greedyseq_;
  std::unique_ptr<GreedyPlanner> planner_;
};

/// Replays cached-path queries from kClients concurrent client threads for
/// `seconds`; returns the throughput in queries per second.
double Replay(const Scenario& s, dist::Coordinator& coord, double seconds,
              uint64_t round) {
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  std::vector<std::thread> clients;
  std::vector<size_t> served(kClients, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(kSeed ^ (0xd1u + c) ^ (round << 8));
      while (std::chrono::steady_clock::now() < deadline) {
        Conjunct preds = s.workload[rng() % s.workload.size()].predicates();
        std::shuffle(preds.begin(), preds.end(), rng);
        (void)coord.Execute(Query::Conjunction(std::move(preds)));
        ++served[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::SetEnabled(obs_was_enabled);
  size_t total = 0;
  for (size_t n : served) total += n;
  return static_cast<double>(total) / elapsed;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

void SetGauge(const std::string& name, double value) {
  obs::DefaultRegistry().GetGauge(name).Set(value);
}

dist::Coordinator MakeCoordinator(const Scenario& s, size_t shards) {
  dist::Coordinator::Options opts;
  opts.partition = dist::PartitionSpec::Hash(shards);
  return dist::Coordinator(
      s.data, *s.cost_model,
      [&s] { return std::make_unique<BenchPlanBuilder>(s); }, opts);
}

/// Fault-free distributed answers must agree with a single-process columnar
/// batch run of the same plan — a wrong-but-fast tier scores zero.
bool VerdictsMatchBatch(const Scenario& s, dist::Coordinator& coord) {
  for (const Query& q : s.workload) {
    const dist::Coordinator::Response resp = coord.Execute(q);
    if (!resp.ok() || resp.degraded() || resp.plan == nullptr) return false;
    std::vector<RowId> all(s.data.num_rows());
    for (RowId r = 0; r < s.data.num_rows(); ++r) all[r] = r;
    std::vector<uint8_t> verdicts;
    ExecuteBatchColumnar(*resp.plan, s.data, all, *s.cost_model, &verdicts);
    for (RowId r = 0; r < s.data.num_rows(); ++r) {
      if ((resp.row_verdicts[r] == Truth::kTrue) != (verdicts[r] != 0)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_dist", argc, argv);
  bench::Banner("distributed tier: 4-shard scatter-gather vs 1 shard");

  Scenario s = MakeScenario();
  std::printf(
      "%zu tuples, %zu distinct queries, %zu clients, %d rounds of %.1fs "
      "per config after a warm-up round\n",
      s.data.num_rows(), kDistinct, kClients, kRounds, kRoundSeconds);

  dist::Coordinator single = MakeCoordinator(s, 1);
  dist::Coordinator sharded = MakeCoordinator(s, 4);

  // Also warms every workload plan in the sharded coordinator.
  const bool correct = VerdictsMatchBatch(s, sharded);
  std::printf("merge equivalence vs columnar batch: %s\n",
              correct ? "ok" : "FAILED");
  for (const Query& q : s.workload) (void)single.Execute(q);

  Replay(s, single, kRoundSeconds, 0);
  Replay(s, sharded, kRoundSeconds, 0);
  std::vector<double> one(kRounds), four(kRounds);
  std::vector<std::string> csv;
  std::printf("\n%-6s %14s %14s %8s\n", "round", "1-shard q/s", "4-shard q/s",
              "ratio");
  for (int r = 0; r < kRounds; ++r) {
    // Alternate which config runs first, so drift in the machine's load
    // does not favour one side.
    const uint64_t seed = static_cast<uint64_t>(r) + 1;
    if (r % 2 == 0) {
      one[r] = Replay(s, single, kRoundSeconds, seed);
      four[r] = Replay(s, sharded, kRoundSeconds, seed);
    } else {
      four[r] = Replay(s, sharded, kRoundSeconds, seed);
      one[r] = Replay(s, single, kRoundSeconds, seed);
    }
    const double ratio = four[r] / one[r];
    std::printf("%-6d %14.0f %14.0f %7.2fx\n", r + 1, one[r], four[r], ratio);
    const std::string prefix = "bench_dist.round" + std::to_string(r + 1);
    SetGauge(prefix + ".single_shard_rps", one[r]);
    SetGauge(prefix + ".four_shard_rps", four[r]);
    SetGauge(prefix + ".speedup", ratio);
    csv.push_back(std::to_string(r + 1) + "," + std::to_string(one[r]) +
                  "," + std::to_string(four[r]) + "," + std::to_string(ratio));
  }
  const double one_median = Median(one);
  const double four_median = Median(four);
  const double speedup = four_median / one_median;
  std::printf("%-6s %14.0f %14.0f %7.2fx\n", "median", one_median,
              four_median, speedup);
  const uint64_t degraded = single.Report().degraded_queries +
                            sharded.Report().degraded_queries;
  std::printf("degraded queries: %llu\n",
              static_cast<unsigned long long>(degraded));

  const unsigned cores = std::thread::hardware_concurrency();
  const bool bar_enforced = cores >= 4;
  if (bar_enforced) {
    std::printf("\nscaling: %.2fx  (median of %d rounds; bar: >= 2x, %u "
                "hardware threads)\n",
                speedup, kRounds, cores);
  } else {
    std::printf(
        "\nscaling: %.2fx  (bar: >= 2x NOT ENFORCED — only %u hardware "
        "threads; shard parallelism cannot beat wall clock here)\n",
        speedup, cores);
  }

  SetGauge("bench_dist.single_shard_rps", one_median);
  SetGauge("bench_dist.four_shard_rps", four_median);
  SetGauge("bench_dist.speedup", speedup);
  SetGauge("bench_dist.merge_equivalent", correct ? 1.0 : 0.0);
  SetGauge("bench_dist.hardware_threads", static_cast<double>(cores));
  SetGauge("bench_dist.bar_enforced", bar_enforced ? 1.0 : 0.0);

  csv.push_back("median," + std::to_string(one_median) + "," +
                std::to_string(four_median) + "," + std::to_string(speedup));
  bench::WriteCsv("dist_scaling", "round,single_qps,four_qps,ratio", csv);
  bench::FinishBench();
  if (!correct) return 1;
  return !bar_enforced || speedup >= 2.0 ? 0 : 1;
}
