// dist_scan and dist_faults: one closed-loop client against one
// dist::Coordinator over 4 hash-partitioned shards. Each op is one standing
// query, predicates reshuffled, evaluated over every row. dist_scan checks
// every row verdict against ExecuteBatchColumnar on the same CompiledPlan;
// dist_faults checks every defined verdict against phi(x).

#include <cstdio>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "dist/coordinator.h"
#include "exec/batch_executor.h"
#include "obs/registry.h"
#include "workloads.h"

namespace perfbench {

namespace {

using caqp::dist::Coordinator;

struct DistWorkload {
  const char* name;
  bool faults;            ///< 5% transient acquisition faults, 3 attempts
  size_t warmup_queries;  ///< closed-loop queries before timing
};

constexpr DistWorkload kWorkloads[] = {
    {"dist_scan", false, 400},
    {"dist_faults", true, 40},
};

constexpr int kSetupReps = 5;  ///< set-ups per run; setup_s is their median
constexpr size_t kShards = 4;
constexpr size_t kTuples = 96000;
constexpr size_t kDistinctQueries = 10;
constexpr double kTrainFraction = 0.4;

const DistWorkload* Find(const std::string& name) {
  for (const DistWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Coordinator> MakeCoordinator(const DistWorkload& w,
                                             const Scenario& s, uint64_t seed,
                                             BuildStats* stats, bool tracing) {
  Coordinator::Options o;
  o.partition = caqp::dist::PartitionSpec::Hash(kShards);
  if (w.faults) {
    o.acquisition_faults = FaultProfile(seed);
    o.row_policy = FaultPolicy();
  }
  o.enable_tracing = tracing;
  o.max_span_events_per_worker = size_t{1} << 18;
  return std::make_unique<Coordinator>(
      s.data, *s.cost_model,
      [&s, stats] { return std::make_unique<BenchBuilder>(s, stats); }, o);
}

/// Ground truth per standing query: phi(x) for every row, and the columnar
/// verdicts and total cost of the plan the coordinator serves (its cache
/// holds every standing plan, so that plan never changes).
struct Truths {
  struct Columnar {
    std::shared_ptr<const caqp::CompiledPlan> plan;
    std::vector<uint8_t> verdicts;
    double cost = 0.0;
  };
  std::vector<std::vector<uint8_t>> phi;
  std::vector<Columnar> columnar;
};

/// Builds the truths, planning every query on `coord`. Returns how many
/// plans' columnar verdicts disagree with phi(x) (0 for a correct planner).
size_t MakeTruths(const Scenario& s, Coordinator& coord, Truths* t) {
  std::vector<caqp::RowId> all_rows(s.data.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), caqp::RowId{0});
  size_t disagree = 0;
  caqp::Tuple tuple(s.data.num_attributes());
  for (const caqp::Query& q : s.queries) {
    std::vector<uint8_t> phi(s.data.num_rows());
    for (caqp::RowId r = 0; r < s.data.num_rows(); ++r) {
      for (caqp::AttrId a = 0; a < tuple.size(); ++a) tuple[a] = s.data.at(r, a);
      phi[r] = q.Matches(tuple) ? 1 : 0;
    }
    Truths::Columnar c;
    c.plan = coord.Execute(q).plan;
    c.cost = caqp::ExecuteBatchColumnar(*c.plan, s.data, all_rows,
                                        *s.cost_model, &c.verdicts)
                 .total_cost;
    disagree += c.verdicts != phi;
    t->phi.push_back(std::move(phi));
    t->columnar.push_back(std::move(c));
  }
  return disagree;
}

/// Runs closed-loop queries; `seconds` 0 means `quota` queries instead.
Tally Drive(const DistWorkload& w, Coordinator& coord, const Scenario& s,
            const Truths& truths, uint64_t seed, double seconds, size_t quota,
            bool keep_trace_ids, double* elapsed) {
  static_assert(sizeof(caqp::Truth) == 1 &&
                static_cast<uint8_t>(caqp::Truth::kTrue) == 1 &&
                static_cast<uint8_t>(caqp::Truth::kFalse) == 0);
  const size_t rows = s.data.num_rows();
  return ClosedLoop(
      kDistClients, seconds, quota, seed,
      [&](std::mt19937_64& rng, Tally& t) {
        const size_t i = rng() % s.queries.size();
        const caqp::Query q = Reshuffled(s.queries[i], rng);
        const Clock::time_point t0 = Clock::now();
        const Coordinator::Response r = coord.Execute(q);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        const double handle_us = r.latency_seconds * 1e6;
        t.handle_us.Record(handle_us);
        t.queue_us.Record(us - handle_us);
        ++t.ops;
        t.tuples += rows;
        t.unknown += r.unknown_rows;
        t.sigs.insert(r.query_sig);
        if (r.planned) ++t.builds;
        if (r.ok() && !r.cache_hit && !r.planned) ++t.followers;
        t.cost += r.merged.cost;
        t.retries += r.merged.retries;
        t.acquisitions += r.merged.acquisitions;
        if (keep_trace_ids) t.trace_ids.push_back(r.trace_id);

        bool bad = !r.ok() || r.degraded() || r.plan == nullptr ||
                   r.row_verdicts.size() != rows;
        if (!bad && !w.faults) {
          const Truths::Columnar& want = truths.columnar[i];
          bad = r.plan != want.plan || r.unknown_rows != 0 ||
                r.merged.cost != want.cost ||
                std::memcmp(r.row_verdicts.data(), want.verdicts.data(),
                            rows) != 0;
        } else if (!bad) {
          const std::vector<uint8_t>& phi = truths.phi[i];
          for (size_t row = 0; row < rows; ++row) {
            const caqp::Truth v = r.row_verdicts[row];
            if (v != caqp::Truth::kUnknown &&
                static_cast<uint8_t>(v) != phi[row]) {
              bad = true;
              break;
            }
          }
        }
        if (bad) ++t.failed;
        return us;
      },
      elapsed);
}

/// The warm-up queries, once every plan is built (MakeTruths builds them).
void WarmUp(const DistWorkload& w, Coordinator& coord, const Scenario& s,
            const Truths& truths, uint64_t seed) {
  double unused = 0.0;
  Drive(w, coord, s, truths, seed ^ 0x7761726dULL, 0.0, w.warmup_queries,
        /*keep_trace_ids=*/false, &unused);
}

uint64_t FaultsInjected() {
  return caqp::obs::DefaultRegistry().GetCounter("fault.injected").value();
}

RunResult RunEndToEnd(const DistWorkload& w, const Args& args) {
  std::unique_ptr<const Scenario> s;
  std::unique_ptr<Coordinator> coord;
  Truths truths;
  size_t disagree = 0;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    coord.reset();
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = MakeScenario(args.seed, kTuples, kTrainFraction, kDistinctQueries);
    coord = MakeCoordinator(w, *s, args.seed, nullptr, /*tracing=*/false);
    for (const caqp::Query& q : s->queries) coord->Execute(q);
    const double until_planned = SecondsSince(t0);
    // Ground truth is the benchmark's own work, not the program's set-up.
    truths = Truths{};
    disagree = MakeTruths(*s, *coord, &truths);
    const Clock::time_point t1 = Clock::now();
    WarmUp(w, *coord, *s, truths, args.seed);
    return until_planned + SecondsSince(t1);
  });
  std::printf("columnar plans vs phi(x): %zu of %zu queries disagree\n",
              disagree, s->queries.size());

  const uint64_t injected = FaultsInjected();
  double elapsed = 0.0;
  const Tally t = Drive(w, *coord, *s, truths, args.seed, args.seconds, 0,
                        /*keep_trace_ids=*/false, &elapsed);
  PrintOutcome(w.name, t, elapsed);
  std::printf("  setup_s median of %d set-ups: %.6f\n", kSetupReps, setup_s);
  const uint64_t faults = FaultsInjected() - injected;
  std::printf("  realized fault rate %.6g (%llu failed attempts)\n",
              static_cast<double>(faults) /
                  std::max(1.0, static_cast<double>(faults) + t.acquisitions),
              static_cast<unsigned long long>(faults));

  RunResult out;
  out.attempted = t.ops;
  out.failed = t.failed + disagree;
  out.measured = AddEndToEnd(t, elapsed, setup_s, &out.metrics);
  return out;
}

/// Per-query span figures from one traced phase (microseconds).
struct SpanFigures {
  std::vector<double> plan, scatter, merge, gather_wait, self, skew;
};

SpanFigures AnalyzeSpans(const std::vector<caqp::obs::SpanEvent>& events,
                         const std::vector<uint64_t>& trace_ids) {
  struct Query {
    bool root = false;
    double dur = 0, plan = 0, scatter = 0, merge = 0;
    uint64_t gather_start = 0, gather_dur = 0;
    std::vector<uint64_t> handle_end;
    std::vector<double> exec;
  };
  std::unordered_map<uint64_t, Query> by_trace;
  for (uint64_t id : trace_ids) by_trace[id];
  const auto is = [](const caqp::obs::SpanEvent& e, const char* name) {
    return std::strcmp(e.name, name) == 0;
  };
  for (const caqp::obs::SpanEvent& e : events) {
    auto it = by_trace.find(e.trace_id);
    if (it == by_trace.end()) continue;
    Query& q = it->second;
    const double us = static_cast<double>(e.dur_ns) * 1e-3;
    if (is(e, "dist.query")) {
      q.root = true;
      q.dur = us;
    } else if (is(e, "dist.plan")) {
      q.plan = us;
    } else if (is(e, "dist.scatter")) {
      q.scatter = us;
    } else if (is(e, "dist.gather")) {
      q.gather_start = e.start_ns;
      q.gather_dur = e.dur_ns;
    } else if (is(e, "dist.merge")) {
      q.merge = us;
    } else if (is(e, "shard.handle")) {
      q.handle_end.push_back(e.start_ns + e.dur_ns);
    } else if (is(e, "shard.exec")) {
      q.exec.push_back(us);
    }
  }
  SpanFigures f;
  for (auto& [id, q] : by_trace) {
    if (!q.root) continue;
    f.plan.push_back(q.plan);
    f.scatter.push_back(q.scatter);
    f.merge.push_back(q.merge);
    // Shard spans past a full span buffer are dropped; use complete queries.
    if (q.handle_end.size() != kShards || q.exec.size() != kShards) continue;
    const uint64_t last =
        *std::max_element(q.handle_end.begin(), q.handle_end.end());
    // The part of the gather span spent before the last shard replied.
    const uint64_t wait_ns = std::min(
        q.gather_dur, last > q.gather_start ? last - q.gather_start : 0);
    const double wait = static_cast<double>(wait_ns) * 1e-3;
    f.gather_wait.push_back(wait);
    f.self.push_back(q.dur - wait);
    std::sort(q.exec.begin(), q.exec.end());
    const double median = 0.5 * (q.exec[kShards / 2 - 1] + q.exec[kShards / 2]);
    if (median > 0.0) f.skew.push_back(q.exec.back() / median);
  }
  return f;
}

RunResult RunTraced(const DistWorkload& w, const Args& args) {
  const std::unique_ptr<const Scenario> scenario =
      MakeScenario(args.seed, kTuples, kTrainFraction, kDistinctQueries);
  const Scenario& s = *scenario;
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
  caqp::dist::DistReport before, after;
  uint64_t faults = 0;
  std::vector<std::vector<caqp::RowId>> shard_rows;
  {
    auto coord = MakeCoordinator(w, s, args.seed, nullptr, false);
    Truths truths;
    out.failed += MakeTruths(s, *coord, &truths);
    WarmUp(w, *coord, s, truths, args.seed);
    before = coord->Report();
    const uint64_t injected = FaultsInjected();
    plain = Drive(w, *coord, s, truths, args.seed, args.seconds / 2, 0,
                  /*keep_trace_ids=*/false, &plain_elapsed);
    faults = FaultsInjected() - injected;
    after = coord->Report();
    for (size_t i = 0; i < coord->num_shards(); ++i) {
      shard_rows.push_back(coord->shard_rows(i));
    }
  }
  PrintOutcome("untraced", plain, plain_elapsed);

  // Half traced: request spans on, the builder behind the timing wrappers.
  BuildStats stats;
  double traced_elapsed = 0.0;
  Tally traced;
  SpanFigures spans;
  {
    auto coord = MakeCoordinator(w, s, args.seed, &stats, true);
    Truths truths;
    out.failed += MakeTruths(s, *coord, &truths);
    WarmUp(w, *coord, s, truths, args.seed);
    traced = Drive(w, *coord, s, truths, args.seed ^ 0x74726163ULL,
                   args.seconds / 2, 0, /*keep_trace_ids=*/true,
                   &traced_elapsed);
    const std::vector<caqp::obs::SpanEvent> events =
        coord->trace_recorder().Events();
    std::printf("traced: %zu spans kept, %llu dropped at the buffer cap\n",
                events.size(),
                static_cast<unsigned long long>(
                    coord->trace_recorder().dropped_events()));
    spans = AnalyzeSpans(events, traced.trace_ids);
  }
  PrintOutcome("traced", traced, traced_elapsed);
  out.attempted = plain.ops + traced.ops;
  out.failed += plain.failed + traced.failed;

  const Percentiles latency = plain.latency_us.Summarize();
  PrintPercentiles("client latency us", latency);
  m.Add("latency_p99_us", latency.p99, "us");
  const Percentiles queue = plain.queue_us.Summarize();
  const Percentiles handle = plain.handle_us.Summarize();
  PrintPercentiles("client minus coordinator us", queue);
  PrintPercentiles("coordinator handle us", handle);
  m.Add("serve.queue_wait_us.p50", queue.p50, "us");
  m.Add("serve.queue_wait_us.p99", queue.p99, "us");
  m.Add("serve.handle_us.p50", handle.p50, "us");
  m.Add("serve.cache.hit_ratio",
        static_cast<double>(after.cache_hits - before.cache_hits) /
            static_cast<double>(after.queries - before.queries),
        "ratio");
  m.Add("serve.single_flight.followers", static_cast<double>(plain.followers),
        "count");
  AddBuildMetrics(stats, traced.builds, &m);
  AddProbeMetrics(s, plans, shard_rows.front(), shard_rows, args.seed, &m);

  const auto add_p50 = [&](const char* name, const std::vector<double>& v) {
    const Percentiles p = Summarize(v);
    PrintPercentiles(name, p);
    m.Add(name, p.p50, "us");
  };
  add_p50("dist.plan_us", spans.plan);
  add_p50("dist.scatter_us", spans.scatter);
  add_p50("dist.gather_wait_us", spans.gather_wait);
  add_p50("dist.merge_us", spans.merge);
  add_p50("dist.coordinator_self_us", spans.self);
  if (spans.gather_wait.empty()) {
    std::printf("  no traced query kept all %zu shard spans (buffers full)\n",
                kShards);
  }

  caqp::obs::HistogramSnapshot exec;
  std::printf("  rows per shard:");
  for (const caqp::dist::ShardReportRow& row : after.shards) {
    exec.Merge(row.exec_latency);
    std::printf(" %zu", row.rows);
  }
  std::printf("\n");
  m.Add("shard.exec_us.p50", exec.p50() * 1e6, "us");
  m.Add("shard.exec_us.p99", exec.p99() * 1e6, "us");
  m.Add("dist.shard_skew", Mean(spans.skew), "ratio");
  m.Add("fault.retries_per_row",
        plain.retries / static_cast<double>(plain.tuples), "count/row");
  m.Add("fault.realized_rate",
        static_cast<double>(faults) /
            std::max(1.0, static_cast<double>(faults) + plain.acquisitions),
        "ratio");
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

bool IsDistWorkload(const std::string& name) { return Find(name) != nullptr; }

RunResult RunDist(const Args& args) {
  const DistWorkload& w = *Find(args.workload);
  return args.trace ? RunTraced(w, args) : RunEndToEnd(w, args);
}

}  // namespace perfbench
