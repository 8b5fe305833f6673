// serve_standing and serve_adhoc: closed-loop clients against one
// serve::QueryService. Each request is one workload query, its predicates
// reshuffled, plus one test tuple; every verdict is checked against
// Query::Matches on that tuple.

#include <cstdio>
#include <future>
#include <numeric>

#include "core/query_signature.h"
#include "workloads.h"

namespace perfbench {

namespace {

using caqp::serve::QueryService;

struct ServeWorkload {
  const char* name;
  size_t distinct_queries;
  bool zipf;               ///< Zipf(s=1) over queries; uniform otherwise
  size_t warmup_requests;  ///< closed-loop requests before timing
  int setup_reps;          ///< set-ups per run; setup_s is their median
};

// The two serve workloads differ only in their query mix. serve_standing:
// 12 standing queries, so after warm-up every request hits. serve_adhoc:
// 4096 queries (4x the cache) drawn Zipf(s=1), so misses, single-flight
// waits and evictions never stop. About 78% of its requests hit, which puts
// the median request well inside the hit mode of a bimodal latency
// distribution; with a 256-entry cache only 59% hit, and the p50 sat on the
// edge between microsecond hits and millisecond builds, moving by a quarter
// from run to run.
constexpr ServeWorkload kWorkloads[] = {
    {"serve_standing", 12, false, 20000, 5},
    {"serve_adhoc", 4096, true, 3000, 3},
};

constexpr size_t kCacheCapacity = 1024;
/// How long a client polls for its answer before blocking (see Drive).
constexpr std::chrono::microseconds kClientSpin{200};
constexpr size_t kWorkers = 4;
constexpr size_t kTuples = 20000;
constexpr double kTrainFraction = 0.6;

const ServeWorkload* Find(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Draws query indices: uniformly, or Zipf(s=1) by index rank.
class QueryPicker {
 public:
  QueryPicker(size_t n, bool zipf) : n_(n) {
    if (!zipf) return;
    cdf_.resize(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = sum += 1.0 / (i + 1.0);
    for (double& c : cdf_) c /= sum;
  }
  size_t Pick(std::mt19937_64& rng) const {
    if (cdf_.empty()) return rng() % n_;
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const size_t i = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, n_ - 1);
  }

 private:
  size_t n_;
  std::vector<double> cdf_;
};

struct Inputs {
  std::unique_ptr<const Scenario> scenario;
  std::vector<caqp::Tuple> tuples;  ///< the test split
};

Inputs MakeInputs(const ServeWorkload& w, uint64_t seed) {
  Inputs in;
  in.scenario = MakeScenario(seed, kTuples, kTrainFraction, w.distinct_queries);
  const caqp::Dataset& test = in.scenario->test;
  for (caqp::RowId r = 0; r < test.num_rows(); ++r) {
    in.tuples.push_back(test.GetTuple(r));
  }
  return in;
}

std::unique_ptr<QueryService> MakeService(const Scenario& s,
                                          BuildStats* stats, bool tracing) {
  QueryService::Options opts;
  opts.num_workers = kWorkers;
  opts.cache_capacity = kCacheCapacity;
  opts.enable_tracing = tracing;
  opts.max_span_events_per_worker = size_t{1} << 18;
  return std::make_unique<QueryService>(
      s.data.schema(), *s.cost_model,
      [&s, stats] { return std::make_unique<BenchBuilder>(s, stats); }, opts);
}

/// Runs closed-loop traffic; `seconds` 0 means `quota` requests instead.
Tally Drive(QueryService& service, const Inputs& in, const QueryPicker& picker,
            uint64_t seed, double seconds, size_t quota, double* elapsed) {
  const Scenario& s = *in.scenario;
  return ClosedLoop(
      ClientThreads(), seconds, quota, seed,
      [&](std::mt19937_64& rng, Tally& t) {
        caqp::Query q = Reshuffled(s.queries[picker.Pick(rng)], rng);
        const caqp::Tuple& tuple = in.tuples[rng() % in.tuples.size()];
        const bool want = q.Matches(tuple);
        const uint64_t sig = caqp::QuerySignature(q);
        const Clock::time_point t0 = Clock::now();
        std::future<QueryService::Response> answer =
            service.Submit(std::move(q), tuple);
        // Poll, yielding, before blocking. A client that blocks at once lets
        // its vCPU go idle, and on a virtual machine the time to wake an
        // idle vCPU depends on the host's load: with blocking clients the
        // serve_standing p50 moved between 19 and 28 us across runs minutes
        // apart, with polling clients it stayed within 10.6-11.6 us.
        while (answer.wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready &&
               Clock::now() - t0 < kClientSpin) {
          std::this_thread::yield();
        }
        const QueryService::Response r = answer.get();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        const double handle_us = r.latency_seconds * 1e6;
        t.handle_us.Record(handle_us);
        t.queue_us.Record(us - handle_us);
        ++t.ops;
        ++t.tuples;
        t.sigs.insert(sig);
        if (!r.ok() || !r.exec.defined() || r.exec.verdict != want) {
          ++t.failed;
        }
        if (r.ok() && !r.exec.defined()) ++t.unknown;
        if (r.planned) ++t.builds;
        if (r.ok() && !r.cache_hit && !r.planned && !r.fallback) {
          ++t.followers;
        }
        t.cost += r.exec.cost;
        t.retries += r.exec.retries;
        t.acquisitions += r.exec.acquisitions;
        return us;
      },
      elapsed);
}

/// Warm-up: every query once (standing), then the workload's warm-up
/// requests. Returns the seconds it took.
double WarmUp(const ServeWorkload& w, QueryService& service, const Inputs& in,
              const QueryPicker& picker, uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  if (!w.zipf) {
    for (const caqp::Query& q : in.scenario->queries) {
      service.SubmitAndWait(q, in.tuples.front());
    }
  }
  double unused = 0.0;
  Drive(service, in, picker, seed ^ 0x7761726dULL, 0.0, w.warmup_requests,
        &unused);
  return SecondsSince(t0);
}

RunResult RunEndToEnd(const ServeWorkload& w, const Args& args) {
  const QueryPicker picker(w.distinct_queries, w.zipf);
  Inputs in;
  std::unique_ptr<QueryService> service;
  const double setup_s = MedianSetupSeconds(w.setup_reps, [&] {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    in = MakeInputs(w, args.seed);
    service = MakeService(*in.scenario, nullptr, /*tracing=*/false);
    const double build_s = SecondsSince(t0);
    return build_s + WarmUp(w, *service, in, picker, args.seed);
  });

  double elapsed = 0.0;
  const Tally t = Drive(*service, in, picker, args.seed, args.seconds, 0,
                        &elapsed);
  PrintOutcome(w.name, t, elapsed);
  std::printf("  setup_s median of %d set-ups: %.6f\n", w.setup_reps,
              setup_s);

  RunResult out;
  out.attempted = t.ops;
  out.failed = t.failed;
  out.measured = AddEndToEnd(t, elapsed, setup_s, &out.metrics);
  return out;
}

RunResult RunTraced(const ServeWorkload& w, const Args& args) {
  const QueryPicker picker(w.distinct_queries, w.zipf);
  const Inputs in = MakeInputs(w, args.seed);
  const Scenario& s = *in.scenario;
  RunResult out;
  MetricSet& m = out.metrics;

  // Set-up check: the timing wrappers must not change a single plan.
  PlanList plans;
  const size_t mismatched = CheckWrappedPlansMatch(s, ClientThreads(), &plans);
  std::printf("wrapped vs plain builder: %zu of %zu plans differ\n",
              mismatched, plans.size());
  out.failed += mismatched;

  // Half the run untraced: what the end-to-end runs measure.
  double plain_elapsed = 0.0;
  Tally plain;
  caqp::serve::ShardedPlanCache::Stats before, after;
  {
    auto service = MakeService(s, nullptr, /*tracing=*/false);
    WarmUp(w, *service, in, picker, args.seed);
    before = service->cache().stats();
    plain = Drive(*service, in, picker, args.seed, args.seconds / 2, 0,
                  &plain_elapsed);
    after = service->cache().stats();
  }
  PrintOutcome("untraced", plain, plain_elapsed);

  // Half traced: request spans on, builders behind the timing wrappers.
  BuildStats stats;
  double traced_elapsed = 0.0;
  Tally traced;
  {
    auto service = MakeService(s, &stats, /*tracing=*/true);
    WarmUp(w, *service, in, picker, args.seed);
    traced = Drive(*service, in, picker, args.seed ^ 0x74726163ULL,
                   args.seconds / 2, 0, &traced_elapsed);
    std::printf("traced: %zu spans kept, %llu dropped at the buffer cap\n",
                service->trace_recorder().Events().size(),
                static_cast<unsigned long long>(
                    service->trace_recorder().dropped_events()));
  }
  PrintOutcome("traced", traced, traced_elapsed);
  out.attempted = plain.ops + traced.ops;
  out.failed += plain.failed + traced.failed;

  const Percentiles latency = plain.latency_us.Summarize();
  PrintPercentiles("client latency us", latency);
  m.Add("latency_p99_us", latency.p99, "us");
  const Percentiles queue = plain.queue_us.Summarize();
  const Percentiles handle = plain.handle_us.Summarize();
  PrintPercentiles("queue wait us", queue);
  PrintPercentiles("worker handle us", handle);
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + (after.misses - before.misses);
  m.Add("serve.queue_wait_us.p50", queue.p50, "us");
  m.Add("serve.queue_wait_us.p99", queue.p99, "us");
  m.Add("serve.handle_us.p50", handle.p50, "us");
  m.Add("serve.cache.hit_ratio",
        static_cast<double>(hits) / static_cast<double>(lookups), "ratio");
  m.Add("serve.cache.evictions_per_kop",
        1000.0 * static_cast<double>(after.evictions - before.evictions) /
            static_cast<double>(plain.ops),
        "count/kop");
  m.Add("serve.single_flight.followers", static_cast<double>(plain.followers),
        "count");
  AddBuildMetrics(stats, traced.builds, &m);

  std::vector<caqp::RowId> test_rows(s.test.num_rows());
  std::iota(test_rows.begin(), test_rows.end(),
            static_cast<caqp::RowId>(s.train.num_rows()));
  AddProbeMetrics(s, plans, test_rows, {test_rows}, args.seed, &m);

  m.Add("workload.distinct_queries", static_cast<double>(plain.sigs.size()),
        "count");
  m.Add("unknown_row_ratio",
        static_cast<double>(plain.unknown + traced.unknown) /
            static_cast<double>(plain.tuples + traced.tuples),
        "ratio");
  m.Add("obs.trace_overhead_ratio",
        (static_cast<double>(plain.ops) / plain_elapsed) /
            (static_cast<double>(traced.ops) / traced_elapsed),
        "ratio");
  return out;
}

}  // namespace

bool IsServeWorkload(const std::string& name) { return Find(name) != nullptr; }

RunResult RunServe(const Args& args) {
  const ServeWorkload& w = *Find(args.workload);
  return args.trace ? RunTraced(w, args) : RunEndToEnd(w, args);
}

}  // namespace perfbench
