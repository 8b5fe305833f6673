#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <type_traits>

#include "core/query_signature.h"
#include "data/synthetic_gen.h"
#include "plan/plan_serde.h"

namespace perfbench {

using caqp::AttrId;
using caqp::Conjunct;
using caqp::Query;

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the sample at or
  // below it.
  const size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  const size_t i = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + i, samples.end());
  return samples[i];
}

Percentiles Summarize(std::vector<double> samples) {
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  p.p50 = Quantile(samples, 0.50);
  p.p99 = Quantile(samples, 0.99);
  p.p99_supported = p.n - static_cast<size_t>(std::ceil(0.99 * p.n)) >= 10;
  return p;
}

LatencyHistogram::LatencyHistogram()
    : buckets_(2 + (kMaxExp - kMinExp) * kSubBuckets, 0) {}

void LatencyHistogram::Record(double us) {
  ++count_;
  if (!(us >= std::ldexp(1.0, kMinExp))) {
    ++buckets_.front();
    return;
  }
  int exp = 0;
  const double mantissa = std::frexp(us, &exp);  // us = mantissa * 2^exp
  const int octave = exp - 1;                    // us in [2^octave, ...)
  if (octave >= kMaxExp) {
    ++buckets_.back();
    return;
  }
  const int sub = static_cast<int>((2.0 * mantissa - 1.0) * kSubBuckets);
  ++buckets_[1 + (octave - kMinExp) * kSubBuckets +
             std::min(sub, kSubBuckets - 1)];
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Quantile(uint64_t rank) const {
  uint64_t below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t c = buckets_[i];
    if (c == 0 || below + c < rank) {
      below += c;
      continue;
    }
    double lo = 0.0;
    double hi = std::ldexp(1.0, kMinExp);
    if (i == buckets_.size() - 1) {
      lo = hi = std::ldexp(1.0, kMaxExp);
    } else if (i > 0) {
      const int octave = kMinExp + static_cast<int>(i - 1) / kSubBuckets;
      const int sub = static_cast<int>(i - 1) % kSubBuckets;
      lo = std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
      hi = std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                      octave);
    }
    // The rank's position among this bucket's samples, spread evenly.
    const double pos =
        (static_cast<double>(rank - below) - 0.5) / static_cast<double>(c);
    return lo + pos * (hi - lo);
  }
  return 0.0;
}

Percentiles LatencyHistogram::Summarize() const {
  Percentiles p;
  p.n = count_;
  if (count_ == 0) return p;
  const auto rank = [&](double q) {
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  };
  p.p50 = Quantile(rank(0.50));
  p.p99 = Quantile(rank(0.99));
  p.p99_supported = count_ - rank(0.99) >= 10;
  return p;
}

void Tally::Merge(const Tally& other) {
  latency_us.Merge(other.latency_us);
  handle_us.Merge(other.handle_us);
  queue_us.Merge(other.queue_us);
  ops += other.ops;
  failed += other.failed;
  tuples += other.tuples;
  unknown += other.unknown;
  followers += other.followers;
  builds += other.builds;
  cost += other.cost;
  retries += other.retries;
  acquisitions += other.acquisitions;
  sigs.insert(other.sigs.begin(), other.sigs.end());
  if (window_ops.empty()) {
    window_latency_us = other.window_latency_us;
    window_ops = other.window_ops;
    window_seconds = other.window_seconds;
  } else {
    for (size_t w = 0; w < window_ops.size(); ++w) {
      window_latency_us[w].Merge(other.window_latency_us[w]);
      window_ops[w] += other.window_ops[w];
    }
  }
  trace_ids.insert(trace_ids.end(), other.trace_ids.begin(),
                   other.trace_ids.end());
}

void PrintPercentiles(const char* name, const Percentiles& p) {
  std::printf("  %-28s p50 %.3f  p99 %.3f  (n=%zu%s)\n", name, p.p50, p.p99,
              p.n, p.p99_supported ? "" : ", p99 has < 10 samples beyond it");
}

void PrintOutcome(const char* phase, const Tally& t, double elapsed) {
  const double ops = static_cast<double>(std::max<uint64_t>(t.ops, 1));
  const double tuples = static_cast<double>(std::max<uint64_t>(t.tuples, 1));
  std::printf(
      "%s: %llu ops in %.3f s, failed_ratio %.6g (%llu), unknown_row_ratio "
      "%.6g, distinct queries %zu, builds %llu, followers %llu\n",
      phase, static_cast<unsigned long long>(t.ops), elapsed,
      static_cast<double>(t.failed) / ops,
      static_cast<unsigned long long>(t.failed),
      static_cast<double>(t.unknown) / tuples, t.sigs.size(),
      static_cast<unsigned long long>(t.builds),
      static_cast<unsigned long long>(t.followers));
}

bool AddEndToEnd(const Tally& t, double elapsed, double setup_s,
                 MetricSet* out) {
  const Percentiles lat = t.latency_us.Summarize();
  PrintPercentiles("client latency (us)", lat);
  if (!lat.p99_supported) {
    std::fprintf(stderr,
                 "run too short: %zu latency samples leave fewer than 10 "
                 "beyond the p99 (needs at least 1000)\n",
                 lat.n);
    return false;
  }
  std::vector<double> window_rate;
  std::vector<double> window_p50;
  for (size_t w = 0; w < t.window_ops.size(); ++w) {
    window_rate.push_back(static_cast<double>(t.window_ops[w]) /
                          t.window_seconds);
    window_p50.push_back(t.window_latency_us[w].Summarize().p50);
  }
  std::printf("  ops/s per window:");
  for (double r : window_rate) std::printf(" %.6g", r);
  std::printf("\n");
  // Load from outside the benchmark only slows a window down, so the
  // fastest decile of windows is the service's own figure with up to 13 of
  // 15 windows disturbed. A slower program slows every window.
  const double rate = Quantile(window_rate, 0.9);
  const double p50 = Quantile(window_p50, 0.1);
  std::printf("  whole run: %.6g ops/s, p50 %.6g us; fastest decile of %zu "
              "windows: %.6g ops/s, p50 %.6g us\n",
              static_cast<double>(t.ops) / elapsed, lat.p50,
              window_rate.size(), rate, p50);
  out->Add("throughput_ops", rate, "ops/s");
  out->Add("latency_p50_us", p50, "us");
  out->Add("acq_cost_per_tuple", t.cost / static_cast<double>(t.tuples),
           "cost/tuple");
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
  return true;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<const Scenario> MakeScenario(uint64_t seed, size_t tuples,
                                             double train_fraction,
                                             size_t distinct_queries) {
  caqp::SyntheticDataOptions dopts;
  dopts.n = 10;
  dopts.gamma = 4;
  dopts.sel = 0.6;
  dopts.tuples = tuples;
  dopts.seed = seed;
  auto s = std::make_unique<Scenario>();
  s->data = caqp::GenerateSyntheticData(dopts);
  auto [train, test] = s->data.SplitFraction(train_fraction);
  s->train = std::move(train);
  s->test = std::move(test);
  const caqp::Schema& schema = s->data.schema();
  s->cost_model = std::make_unique<caqp::PerAttributeCostModel>(schema);
  s->splits = std::make_unique<caqp::SplitPointSet>(
      caqp::SplitPointSet::FromLog10Spsf(
          schema, static_cast<double>(schema.num_attributes())));

  // Conjunctive queries of 3..n equality predicates (a quarter negated) on
  // distinct attributes, deduplicated by canonical signature. The query set
  // is part of the workload's definition and does not follow the seed: the
  // acquisition cost of a handful of random queries varies by tens of
  // percent from one draw to the next, which would drown every effect the
  // benchmark is meant to show. The seed moves the data, the training split
  // (and so the plans), and every request stream.
  std::mt19937_64 rng(kQuerySetSeed);
  std::vector<uint64_t> sigs;
  const size_t n = schema.num_attributes();
  while (s->queries.size() < distinct_queries) {
    std::vector<AttrId> attrs(n);
    for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
    std::shuffle(attrs.begin(), attrs.end(), rng);
    const size_t arity = 3 + rng() % (n - 2);
    Conjunct preds;
    for (size_t i = 0; i < arity; ++i) {
      const caqp::Value v =
          static_cast<caqp::Value>(rng() % schema.domain_size(attrs[i]));
      preds.emplace_back(attrs[i], v, v, /*negated=*/rng() % 4 == 0);
    }
    Query q = Query::Conjunction(std::move(preds));
    const uint64_t sig = caqp::QuerySignature(q);
    if (std::find(sigs.begin(), sigs.end(), sig) != sigs.end()) continue;
    sigs.push_back(sig);
    s->queries.push_back(std::move(q));
  }
  return s;
}

Query Reshuffled(const Query& query, std::mt19937_64& rng) {
  Conjunct preds = query.predicates();
  std::shuffle(preds.begin(), preds.end(), rng);
  return Query::Conjunction(std::move(preds));
}

/// Forwards every estimator call to the wrapped DatasetEstimator, timing and
/// counting it. Single-threaded, like the estimator it wraps.
class BenchBuilder::TimingEstimator : public caqp::CondProbEstimator {
 public:
  explicit TimingEstimator(caqp::CondProbEstimator& inner) : inner_(inner) {}

  const caqp::Schema& schema() const override { return inner_.schema(); }

  caqp::Histogram Marginal(const caqp::RangeVec& given, AttrId attr) override {
    ++counts.marginal;
    return Timed([&] { return inner_.Marginal(given, attr); });
  }
  double ReachProbability(const caqp::RangeVec& given) override {
    ++counts.reach;
    return Timed([&] { return inner_.ReachProbability(given); });
  }
  caqp::MaskDistribution PredicateMasks(
      const caqp::RangeVec& given,
      const std::vector<caqp::Predicate>& preds) override {
    ++counts.masks;
    return Timed([&] { return inner_.PredicateMasks(given, preds); });
  }
  std::vector<caqp::MaskDistribution> PerValuePredicateMasks(
      const caqp::RangeVec& given, AttrId attr,
      const std::vector<caqp::Predicate>& preds) override {
    ++counts.per_value;
    return Timed(
        [&] { return inner_.PerValuePredicateMasks(given, attr, preds); });
  }
  void PushScope(const caqp::RangeVec& ranges) override {
    Timed([&] {
      inner_.PushScope(ranges);
      return 0;
    });
  }
  void PopScope() override {
    Timed([&] {
      inner_.PopScope();
      return 0;
    });
  }

  struct Counts {
    double busy_ns = 0.0;
    uint64_t marginal = 0;
    uint64_t masks = 0;
    uint64_t per_value = 0;
    uint64_t reach = 0;
  };
  Counts counts;

 private:
  template <typename F>
  std::invoke_result_t<F> Timed(F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto out = f();
    counts.busy_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
    return out;
  }

  caqp::CondProbEstimator& inner_;
};

BenchBuilder::BenchBuilder(const Scenario& s, BuildStats* stats)
    : estimator_(s.train), stats_(stats) {
  caqp::GreedyPlanner::Options gopts;
  gopts.split_points = s.splits.get();
  gopts.seq_solver = &greedyseq_;
  gopts.max_splits = 5;
  caqp::CondProbEstimator* estimator = &estimator_;
  if (stats_ != nullptr) {
    timing_ = std::make_unique<TimingEstimator>(estimator_);
    estimator = timing_.get();
  }
  planner_ =
      std::make_unique<caqp::GreedyPlanner>(*estimator, *s.cost_model, gopts);
}

BenchBuilder::~BenchBuilder() = default;

caqp::Plan BenchBuilder::Build(const Query& query) {
  if (stats_ == nullptr) return planner_->BuildPlan(query);
  const TimingEstimator::Counts before = timing_->counts;
  const Clock::time_point t0 = Clock::now();
  caqp::Plan plan = planner_->BuildPlan(query);
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  std::lock_guard<std::mutex> lock(stats_->mu);
  stats_->build_ms.push_back(ns * 1e-6);
  stats_->build_ns += ns;
  const TimingEstimator::Counts& now = timing_->counts;
  stats_->estimator_ns += now.busy_ns - before.busy_ns;
  stats_->marginal_calls += now.marginal - before.marginal;
  stats_->mask_calls += now.masks - before.masks;
  stats_->per_value_calls += now.per_value - before.per_value;
  stats_->reach_calls += now.reach - before.reach;
  return plan;
}

size_t CheckWrappedPlansMatch(
    const Scenario& s, size_t threads,
    std::vector<std::shared_ptr<const caqp::CompiledPlan>>* plans) {
  plans->assign(s.queries.size(), nullptr);
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      BuildStats scratch;
      BenchBuilder plain(s, nullptr);
      BenchBuilder wrapped(s, &scratch);
      for (size_t i = next++; i < s.queries.size(); i = next++) {
        auto compiled = std::make_shared<const caqp::CompiledPlan>(
            caqp::CompiledPlan::Compile(plain.Build(s.queries[i])));
        const std::vector<uint8_t> want = caqp::SerializePlan(*compiled);
        if (caqp::SerializePlan(wrapped.Build(s.queries[i])) != want) {
          ++mismatches;
        }
        (*plans)[i] = std::move(compiled);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return mismatches.load();
}

size_t ClientThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

}  // namespace perfbench
