// Shared pieces of the serving benchmark: command-line arguments, the metric
// list a run prints, percentile summaries, the synthetic scenario every
// workload is generated from, and the plan builder the services are given
// (optionally behind the timing wrappers the traced run uses).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/dataset.h"
#include "core/query.h"
#include "opt/cost_model.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/split_points.h"
#include "plan/compiled_plan.h"
#include "prob/dataset_estimator.h"
#include "serve/query_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Named metrics in the order they were added; the last output line of a run
/// is built from these.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Median and p99 of a sample (nearest rank). `p99_supported` is false when
/// fewer than 10 samples lie beyond the p99, i.e. the run was too short for
/// the p99 to be a measurement.
struct Percentiles {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};
Percentiles Summarize(std::vector<double> samples);

/// Nearest-rank q-quantile of a sample (0 when empty).
double Quantile(std::vector<double> samples, double q);

/// Fixed-memory latency sample, so the benchmark's own bookkeeping does not
/// grow with throughput (peak RSS is a reported metric). Log-linear buckets,
/// 64 per octave from 1/16 us to 2^24 us; a percentile is interpolated by
/// rank inside its bucket, so it is within 1.1% of the exact sample value.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(double us);
  void Merge(const LatencyHistogram& other);
  Percentiles Summarize() const;

 private:
  static constexpr int kSubBuckets = 64;
  static constexpr int kMinExp = -4;
  static constexpr int kMaxExp = 24;
  double Quantile(uint64_t rank) const;  // 1-based nearest rank

  std::vector<uint64_t> buckets_;  // [underflow, log-linear..., overflow]
  uint64_t count_ = 0;
};

double Mean(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// What every workload is generated from: the paper's synthetic correlated
/// data (n = 10 binary attributes, gamma = 4) drawn from the run's seed, a
/// train/test split, and a fixed set of distinct conjunctive queries. Held
/// by pointer: the cost model and estimators refer into the datasets.
struct Scenario {
  caqp::Dataset data{caqp::Schema{}};
  caqp::Dataset train{caqp::Schema{}};
  caqp::Dataset test{caqp::Schema{}};
  std::unique_ptr<caqp::PerAttributeCostModel> cost_model;
  std::unique_ptr<caqp::SplitPointSet> splits;
  std::vector<caqp::Query> queries;
};

/// Seed of the workloads' query sets (see MakeScenario).
inline constexpr uint64_t kQuerySetSeed = 20050405;

std::unique_ptr<const Scenario> MakeScenario(uint64_t seed, size_t tuples,
                                             double train_fraction,
                                             size_t distinct_queries);

/// The same query with its predicates in a random order (same signature).
caqp::Query Reshuffled(const caqp::Query& query, std::mt19937_64& rng);

/// What the timing wrappers saw across every Build of the builders sharing
/// it. Written from service worker threads, read after the traffic stops.
struct BuildStats {
  std::mutex mu;
  std::vector<double> build_ms;    // guarded by mu
  double build_ns = 0.0;           // guarded by mu
  double estimator_ns = 0.0;       // guarded by mu
  uint64_t marginal_calls = 0;     // guarded by mu
  uint64_t mask_calls = 0;         // guarded by mu
  uint64_t per_value_calls = 0;    // guarded by mu
  uint64_t reach_calls = 0;        // guarded by mu
};

/// A GreedyPlanner (max_splits 5) over its own DatasetEstimator — the serve
/// workers' and the coordinator's planner. With `stats` set, Build is timed
/// and the planner reaches the estimator through a forwarding wrapper that
/// times and counts every call; the plans are unchanged (checked by
/// CheckWrappedPlansMatch).
class BenchBuilder : public caqp::serve::PlanBuilder {
 public:
  BenchBuilder(const Scenario& s, BuildStats* stats);
  ~BenchBuilder() override;
  caqp::Plan Build(const caqp::Query& query) override;
  uint64_t ConfigFingerprint() const override { return 0x70657266ULL; }

 private:
  class TimingEstimator;

  caqp::DatasetEstimator estimator_;
  std::unique_ptr<TimingEstimator> timing_;
  caqp::GreedySeqSolver greedyseq_;
  std::unique_ptr<caqp::GreedyPlanner> planner_;
  BuildStats* stats_;
};

/// Builds every query with a plain and a wrapped builder, over `threads`
/// threads, and compares their SerializePlan bytes. Returns the number of
/// queries whose bytes differ; the plain plans land in `plans`.
size_t CheckWrappedPlansMatch(
    const Scenario& s, size_t threads,
    std::vector<std::shared_ptr<const caqp::CompiledPlan>>* plans);

/// Client threads for closed-loop load: one per hardware thread, at most 4.
size_t ClientThreads();

/// What the clients of one phase observed. An op is one request; a tuple is
/// one evaluated (query, row) pair — one per op in the serve tier, every row
/// of the dataset per op in the dist tier.
struct Tally {
  LatencyHistogram latency_us;  ///< client-observed, send to answer
  LatencyHistogram handle_us;   ///< the service's own Response latency
  LatencyHistogram queue_us;    ///< latency_us minus handle_us
  uint64_t ops = 0;
  uint64_t failed = 0;     ///< non-OK, degraded, or disagreeing with truth
  uint64_t tuples = 0;
  uint64_t unknown = 0;    ///< tuples answered Unknown
  uint64_t followers = 0;  ///< neither a cache hit nor the planning leader
  uint64_t builds = 0;     ///< ops that ran the planner
  double cost = 0.0;       ///< realized acquisition cost, summed
  double retries = 0.0;
  double acquisitions = 0.0;
  std::unordered_set<uint64_t> sigs;  ///< distinct query signatures seen
  std::vector<uint64_t> trace_ids;    ///< per op, when the phase is traced
  /// Timed phases: the run cut into kWindows equal windows, with the client
  /// latency and the ops completed in each.
  std::vector<LatencyHistogram> window_latency_us;
  std::vector<uint64_t> window_ops;
  double window_seconds = 0.0;

  void Merge(const Tally& other);
};

/// Windows per timed phase. Throughput and the p50 are reported from the
/// per-window figures (see AddEndToEnd), so load from outside the benchmark
/// that slows part of a run does not move them.
inline constexpr size_t kWindows = 15;

/// Closed loop: each of `clients` threads sends one op, waits for its
/// answer, checks it, and sends the next, until `seconds` elapse — or, when
/// `seconds` is 0, until `quota` ops have been sent in all. `op(rng, tally)`
/// performs and records one op and returns its client-observed latency in
/// microseconds. Returns the merged tally and, in `*elapsed`, the wall time
/// from the first send to the last answer.
template <typename Op>
Tally ClosedLoop(size_t clients, double seconds, size_t quota, uint64_t seed,
                 Op op, double* elapsed) {
  std::vector<Tally> tallies(clients);
  for (Tally& t : tallies) {
    if (seconds <= 0.0) break;
    t.window_latency_us.resize(kWindows);
    t.window_ops.resize(kWindows);
    t.window_seconds = seconds / kWindows;
  }
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& t = tallies[c];
      std::mt19937_64 rng(seed ^ ((c + 1) * 0x9e3779b97f4a7c15ULL));
      const size_t share = quota / clients + (c < quota % clients);
      for (size_t i = 0; seconds > 0.0 ? Clock::now() < deadline : i < share;
           ++i) {
        const double us = op(rng, t);
        t.latency_us.Record(us);
        if (t.window_ops.empty()) continue;
        // Ops answered after the deadline belong to no window.
        const size_t w =
            static_cast<size_t>(SecondsSince(t0) / t.window_seconds);
        if (w < kWindows) {
          t.window_latency_us[w].Record(us);
          ++t.window_ops[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *elapsed = SecondsSince(t0);
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  return total;
}

/// Median of `reps` runs of `setup`, which returns its own set-up seconds.
template <typename Setup>
double MedianSetupSeconds(int reps, Setup setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) seconds.push_back(setup());
  std::sort(seconds.begin(), seconds.end());
  const size_t n = seconds.size();
  return n % 2 ? seconds[n / 2] : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]);
}

/// Adds the end-to-end metrics of a measured phase and prints its p99.
/// Returns false (and says why on stderr) when the run was too short for
/// its p99.
bool AddEndToEnd(const Tally& t, double elapsed, double setup_s,
                 MetricSet* out);

/// Prints the ratios every run reports beside its metrics.
void PrintOutcome(const char* phase, const Tally& t, double elapsed);

/// Percentile pair with its sample count, for the text report.
void PrintPercentiles(const char* name, const Percentiles& p);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
