// caqp_perf: the serving benchmark's driver binary.
//
//   caqp_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: serve_standing, serve_adhoc, dist_scan, dist_faults (see
// perfbench/README.md). With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it reports the per-layer metrics instead. Human
// readable lines come first; the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Exits 1 on any wrong answer (after printing the result) and,
// without a result, when the run was too short to measure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::MetricSet;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"throughput_ops", "ops/s"},
    {"latency_p50_us", "us"},
    {"acq_cost_per_tuple", "cost/tuple"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric, on every workload; a layer that is not on a
// workload's request path reads 0 there (and "n/a" in the text report).
constexpr MetricSpec kPerLayer[] = {
    {"latency_p99_us", "us"},
    {"core.signature_ns", "ns"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.handle_us.p50", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.evictions_per_kop", "count/kop"},
    {"serve.single_flight.followers", "count"},
    {"opt.builds", "count"},
    {"opt.build_ms.p50", "ms"},
    {"opt.build_ms.p99", "ms"},
    {"prob.marginal.calls", "calls/build"},
    {"prob.predicate_masks.calls", "calls/build"},
    {"prob.per_value_masks.calls", "calls/build"},
    {"prob.reach.calls", "calls/build"},
    {"prob.busy_share", "ratio"},
    {"plan.splits_mean", "splits"},
    {"plan.wire_bytes", "bytes"},
    {"plan.serialize_us", "us"},
    {"exec.scalar_ns_per_tuple", "ns/tuple"},
    {"exec.columnar_ns_per_row", "ns/row"},
    {"exec.faulty_ns_per_row", "ns/row"},
    {"dist.plan_us", "us"},
    {"dist.scatter_us", "us"},
    {"dist.gather_wait_us", "us"},
    {"dist.merge_us", "us"},
    {"dist.coordinator_self_us", "us"},
    {"shard.exec_us.p50", "us"},
    {"shard.exec_us.p99", "us"},
    {"dist.shard_skew", "ratio"},
    {"fault.retries_per_row", "count/row"},
    {"fault.realized_rate", "ratio"},
    {"workload.distinct_queries", "count"},
    {"failed_ratio", "ratio"},
    {"unknown_row_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "caqp_perf: %s\nusage: caqp_perf --workload "
               "<serve_standing|serve_adhoc|dist_scan|dist_faults> --seed "
               "<n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      seen[1] = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      seen[2] = *end == '\0' && args->seconds > 0.0 && args->seconds <= 600.0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      seen[3] = args->trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen[0] && seen[1] && seen[2] && seen[3];
}

/// Orders the measured metrics as the spec lists them, filling layers the
/// workload does not run with 0. Returns false on a metric outside the spec
/// or with the wrong unit (a benchmark bug), or on a non-finite value.
template <size_t N>
bool Canonical(const MetricSet& measured, const MetricSpec (&spec)[N],
               MetricSet* out) {
  for (const MetricSet::Metric& m : measured.all()) {
    bool known = false;
    for (const MetricSpec& s : spec) {
      known = known || (m.name == s.name && m.unit == s.unit);
    }
    if (!known || !std::isfinite(m.value)) {
      std::fprintf(stderr, "caqp_perf: bad metric %s = %g %s\n",
                   m.name.c_str(), m.value, m.unit.c_str());
      return false;
    }
  }
  std::printf("metrics:\n");
  for (const MetricSpec& s : spec) {
    const MetricSet::Metric* found = nullptr;
    for (const MetricSet::Metric& m : measured.all()) {
      if (m.name == s.name) found = &m;
    }
    out->Add(s.name, found ? found->value : 0.0, s.unit);
    if (found) {
      std::printf("  %-32s %.6g %s\n", s.name, found->value, s.unit);
    } else {
      std::printf("  %-32s n/a (0) on this workload\n", s.name);
    }
  }
  return true;
}

void PrintJson(bool correct, const perfbench::RunResult& r,
               const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const MetricSet::Metric& m : metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const bool serve = perfbench::IsServeWorkload(args.workload);
  if (!serve && !perfbench::IsDistWorkload(args.workload)) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::printf("workload %s, seed %llu, %.3g s, trace %d, %zu client threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              serve ? perfbench::ClientThreads() : perfbench::kDistClients);

  perfbench::RunResult r =
      serve ? perfbench::RunServe(args) : perfbench::RunDist(args);
  if (!r.measured || r.attempted == 0) return 1;
  if (args.trace) {
    r.metrics.Add("failed_ratio",
                  static_cast<double>(r.failed) /
                      static_cast<double>(r.attempted),
                  "ratio");
  }
  MetricSet metrics;
  const bool ok = args.trace ? Canonical(r.metrics, kPerLayer, &metrics)
                             : Canonical(r.metrics, kEndToEnd, &metrics);
  if (!ok) return 3;
  const bool correct = r.failed == 0;
  std::fflush(stdout);
  PrintJson(correct, r, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
