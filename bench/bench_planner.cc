// Planner layer: plan-build latency per (dataset, planner), and the share of
// it spent in the estimator.
//
// Datasets, each split 60/40 into train and test, planned over the train
// part with SPSF = 10^n (n attributes):
//
//   synthetic  perfbench's serve data: n=10, gamma=4, sel 0.6, 20k tuples,
//              and the first kSyntheticQueries of its serve_adhoc-style
//              queries (3..n equality predicates, a quarter negated)
//   lab        GenerateLabData defaults (10 motes, 40k readings) and
//              kLabQueries GenerateLabQueries over light, temperature and
//              humidity
//   garden5    GenerateGardenData with 5 motes and 20k epochs, and
//              kGardenQueries GenerateGardenQueries
//
// Planners: GreedyPlanner (max_splits 5, GreedySeq leaves) and CorrSeq (a
// GreedySeq sequential plan). Every planner reaches its DatasetEstimator
// through a forwarding wrapper that times each call, as perfbench's traced
// run does, so one set of builds gives both the latency and the estimator
// share; the wrapper costs two clock reads per estimator call.
//
// Protocol: one untimed warm-up round records every plan's bytes, then
// kRounds timed rounds build every (dataset, planner, query) once,
// alternating the order of the configurations from round to round. Each
// configuration reports the median over rounds of its per-round build p50
// and p99. With 40 lab and 20 garden queries a round's p99 is its slowest
// build or close to it.
//
// Bars: the estimator's share of synthetic Greedy build time must be at
// most 0.35. It is a ratio of two times measured on the same machine, so
// the bar does not depend on the hardware's speed. It is exported as its
// complement,
// bench_planner.synthetic_solver_share, for
// `scripts/check_bench_bars.py --min bench_planner_synthetic_solver_share:0.65`.
// The bench exits 1 when the bar fails or when any plan's bytes differ
// between rounds. Each configuration also prints an FNV-1a digest of its
// plans' bytes; equal digests from two builds of the library mean they
// planned every query identically.
//
// --json-out <path> writes the obs metrics registry (bench_util.h): the
// per-configuration medians, shares and each dataset's rows per distinct
// tuple as bench_planner.* gauges.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "core/query_signature.h"
#include "data/garden_gen.h"
#include "data/lab_gen.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/planner.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 5;
constexpr size_t kSyntheticQueries = 1024;
constexpr size_t kLabQueries = 40;
constexpr size_t kGardenQueries = 20;
/// perfbench's query-set seed, so the synthetic queries are its own.
constexpr uint64_t kQuerySetSeed = 20050405;
constexpr double kMaxSyntheticEstimatorShare = 0.35;

/// Forwards every call to the wrapped estimator, adding its duration to
/// busy_ns.
class TimingEstimator : public CondProbEstimator {
 public:
  explicit TimingEstimator(CondProbEstimator& inner) : inner_(inner) {}

  const Schema& schema() const override { return inner_.schema(); }
  Histogram Marginal(const RangeVec& given, AttrId attr) override {
    return Timed([&] { return inner_.Marginal(given, attr); });
  }
  double ReachProbability(const RangeVec& given) override {
    return Timed([&] { return inner_.ReachProbability(given); });
  }
  MaskDistribution PredicateMasks(
      const RangeVec& given, const std::vector<Predicate>& preds) override {
    return Timed([&] { return inner_.PredicateMasks(given, preds); });
  }
  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override {
    return Timed(
        [&] { return inner_.PerValuePredicateMasks(given, attr, preds); });
  }

  double busy_ns = 0.0;

 private:
  template <typename F>
  std::invoke_result_t<F> Timed(F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto out = f();
    busy_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    return out;
  }

  CondProbEstimator& inner_;
};

struct DatasetSetup {
  std::string name;
  Dataset train;
  std::vector<Query> queries;
};

DatasetSetup Synthetic() {
  SyntheticDataOptions dopts;
  dopts.n = 10;
  dopts.gamma = 4;
  dopts.sel = 0.6;
  dopts.tuples = 20000;
  dopts.seed = kQuerySetSeed;
  Dataset train = GenerateSyntheticData(dopts).SplitFraction(0.6).first;
  // perfbench's serve query generator: conjunctions of 3..n equality
  // predicates on distinct attributes, a quarter negated, deduplicated by
  // signature.
  const Schema& schema = train.schema();
  const size_t n = schema.num_attributes();
  std::mt19937_64 rng(kQuerySetSeed);
  std::vector<uint64_t> sigs;
  std::vector<Query> queries;
  while (queries.size() < kSyntheticQueries) {
    std::vector<AttrId> attrs(n);
    for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
    std::shuffle(attrs.begin(), attrs.end(), rng);
    const size_t arity = 3 + rng() % (n - 2);
    Conjunct preds;
    for (size_t i = 0; i < arity; ++i) {
      const Value v = static_cast<Value>(rng() % schema.domain_size(attrs[i]));
      preds.emplace_back(attrs[i], v, v, /*negated=*/rng() % 4 == 0);
    }
    Query q = Query::Conjunction(std::move(preds));
    const uint64_t sig = QuerySignature(q);
    if (std::find(sigs.begin(), sigs.end(), sig) != sigs.end()) continue;
    sigs.push_back(sig);
    queries.push_back(std::move(q));
  }
  return {"synthetic", std::move(train), std::move(queries)};
}

DatasetSetup Lab() {
  Dataset train = GenerateLabData(LabDataOptions{}).SplitFraction(0.6).first;
  const LabAttrs attrs = ResolveLabAttrs(train.schema());
  LabQueryOptions qopts;
  qopts.num_queries = kLabQueries;
  std::vector<Query> queries = GenerateLabQueries(
      train, {attrs.light, attrs.temperature, attrs.humidity}, qopts);
  return {"lab", std::move(train), std::move(queries)};
}

DatasetSetup Garden5() {
  GardenDataOptions gopts;
  gopts.num_motes = 5;
  gopts.epochs = 20000;
  Dataset train = GenerateGardenData(gopts).SplitFraction(0.6).first;
  const GardenAttrs attrs = ResolveGardenAttrs(train.schema());
  GardenQueryOptions qopts;
  qopts.num_queries = kGardenQueries;
  std::vector<Query> queries = GenerateGardenQueries(
      train.schema(), attrs.temperature, attrs.humidity, qopts);
  return {"garden5", std::move(train), std::move(queries)};
}

/// Rows per distinct tuple of `data`.
double RowsPerTuple(const Dataset& data) {
  std::set<Tuple> tuples;
  for (RowId r = 0; r < data.num_rows(); ++r) tuples.insert(data.GetTuple(r));
  return tuples.empty() ? 0.0
                        : static_cast<double>(data.num_rows()) /
                              static_cast<double>(tuples.size());
}

/// One dataset's estimator, wrapper and planners.
struct DatasetBench {
  DatasetSetup setup;
  DatasetEstimator estimator;
  TimingEstimator timing;
  PerAttributeCostModel cost_model;
  SplitPointSet splits;
  GreedySeqSolver greedyseq;

  explicit DatasetBench(DatasetSetup s)
      : setup(std::move(s)),
        estimator(setup.train),
        timing(estimator),
        cost_model(setup.train.schema()),
        splits(SplitPointSet::FromLog10Spsf(
            setup.train.schema(),
            static_cast<double>(setup.train.schema().num_attributes()))) {}
};

/// One (dataset, planner) pair and everything measured on it.
struct Config {
  DatasetBench* data = nullptr;
  std::unique_ptr<Planner> planner;
  std::string name;  ///< "<dataset>.<planner>"
  std::vector<std::vector<uint8_t>> plan_bytes;  ///< from the warm-up round
  uint64_t plan_digest = 14695981039346656037ULL;  ///< FNV-1a of plan_bytes
  std::vector<double> round_p50_ms;
  std::vector<double> round_p99_ms;
  double build_ns = 0.0;
  double estimator_ns = 0.0;
};

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Builds every query of `c` once. In the warm-up round records each plan's
/// bytes; in a timed round records the round's p50 and p99 and returns the
/// number of plans whose bytes differ from the warm-up's.
size_t RunRound(Config& c, bool warm_up) {
  std::vector<double> build_ms;
  size_t differ = 0;
  const std::vector<Query>& queries = c.data->setup.queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double busy_before = c.data->timing.busy_ns;
    const Clock::time_point t0 = Clock::now();
    const Plan plan = c.planner->BuildPlan(queries[i]);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    std::vector<uint8_t> bytes = SerializePlan(CompiledPlan::Compile(plan));
    if (warm_up) {
      for (const uint8_t b : bytes) {
        c.plan_digest = (c.plan_digest ^ b) * 1099511628211ULL;
      }
      c.plan_bytes.push_back(std::move(bytes));
      continue;
    }
    if (bytes != c.plan_bytes[i]) ++differ;
    build_ms.push_back(ns * 1e-6);
    c.build_ns += ns;
    c.estimator_ns += c.data->timing.busy_ns - busy_before;
  }
  if (!warm_up) {
    c.round_p50_ms.push_back(Quantile(build_ms, 0.5));
    c.round_p99_ms.push_back(Quantile(build_ms, 0.99));
  }
  return differ;
}

void SetGauge(const std::string& name, double value) {
  obs::DefaultRegistry().GetGauge(name).Set(value);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_planner", argc, argv);
  bench::Banner("planner layer: build latency and estimator share");

  std::vector<std::unique_ptr<DatasetBench>> datasets;
  for (const auto& make : {Synthetic, Lab, Garden5}) {
    datasets.push_back(std::make_unique<DatasetBench>(make()));
  }
  std::vector<Config> configs;
  for (const auto& d : datasets) {
    GreedyPlanner::Options gopts;
    gopts.split_points = &d->splits;
    gopts.seq_solver = &d->greedyseq;
    gopts.max_splits = 5;
    Config greedy;
    greedy.data = d.get();
    greedy.planner =
        std::make_unique<GreedyPlanner>(d->timing, d->cost_model, gopts);
    greedy.name = d->setup.name + ".greedy";
    configs.push_back(std::move(greedy));
    Config corrseq;
    corrseq.data = d.get();
    corrseq.planner = std::make_unique<SequentialPlanner>(
        d->timing, d->cost_model, d->greedyseq, "CorrSeq");
    corrseq.name = d->setup.name + ".corrseq";
    configs.push_back(std::move(corrseq));

    const double rows_per_tuple = RowsPerTuple(d->setup.train);
    std::printf("%-10s %6zu train rows, %5.2f rows per distinct tuple, %4zu "
                "queries\n",
                d->setup.name.c_str(), d->setup.train.num_rows(),
                rows_per_tuple, d->setup.queries.size());
    SetGauge("bench_planner." + d->setup.name + ".rows_per_tuple",
             rows_per_tuple);
  }

  for (Config& c : configs) RunRound(c, /*warm_up=*/true);
  size_t differ = 0;
  for (int r = 0; r < kRounds; ++r) {
    // Alternate the order, so drift in the machine's load does not favour
    // one configuration.
    if (r % 2 == 0) {
      for (Config& c : configs) differ += RunRound(c, false);
    } else {
      for (auto c = configs.rbegin(); c != configs.rend(); ++c) {
        differ += RunRound(*c, false);
      }
    }
  }

  std::printf("\n%-18s %12s %12s %15s %18s\n", "config", "build p50 ms",
              "build p99 ms", "estimator share", "plan digest");
  double synthetic_share = 1.0;
  for (const Config& c : configs) {
    const double p50 = Median(c.round_p50_ms);
    const double p99 = Median(c.round_p99_ms);
    const double share = c.estimator_ns / c.build_ns;
    std::printf("%-18s %12.3f %12.3f %15.3f %18llx\n", c.name.c_str(), p50,
                p99, share, static_cast<unsigned long long>(c.plan_digest));
    SetGauge("bench_planner." + c.name + ".build_ms_p50", p50);
    SetGauge("bench_planner." + c.name + ".build_ms_p99", p99);
    SetGauge("bench_planner." + c.name + ".estimator_share", share);
    if (c.name == "synthetic.greedy") synthetic_share = share;
  }
  SetGauge("bench_planner.synthetic_solver_share", 1.0 - synthetic_share);
  SetGauge("bench_planner.plans_differing", static_cast<double>(differ));

  const bool bar = synthetic_share <= kMaxSyntheticEstimatorShare;
  std::printf("\nplans differing between rounds: %zu\n", differ);
  std::printf("synthetic greedy estimator share: %.3f (bar: <= %.2f) %s\n",
              synthetic_share, kMaxSyntheticEstimatorShare,
              bar ? "ok" : "FAIL");
  bench::FinishBench();
  return differ == 0 && bar ? 0 : 1;
}
