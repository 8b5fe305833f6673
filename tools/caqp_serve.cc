// caqp_serve: workload replay against the caqp::serve::QueryService.
//
// Generates a synthetic correlated dataset, a pool of distinct conjunctive
// queries, and replays a repeated-query request stream from concurrent
// client threads at a target concurrency. Each request's predicates are
// re-shuffled before submission, so cache hits demonstrate canonicalization
// (order-insensitive query signatures), not string matching. Prints
// throughput and latency percentiles from the service's latency stats and
// the caqp::obs registry.
//
// Example:
//   caqp_serve --workers 8 --clients 16 --requests 20000 --distinct 32
//
// --workers N          service worker threads (default 4)
// --clients N          concurrent client threads submitting requests
//                      (default 8)
// --requests N         total requests to replay (default 20000)
// --distinct N         distinct queries in the workload (default 16)
// --tuples N           synthetic dataset size (default 20000)
// --attrs N            synthetic attributes (default 10)
// --gamma G            correlation factor, group size G+1 (default 4)
// --planner P          greedy | greedyseq | optseq | naive (default greedy)
// --max-splits K       greedy split budget (default 5)
// --cache-capacity N   plan-cache entries (default 1024)
// --no-cache           plan-per-query baseline (capacity 0, no single-flight)
// --deadline-ms D      per-request deadline; requests still queued when it
//                      expires answer kDeadlineExceeded (default 0 = none)
// --planner-timeout-ms T   cap on how long a request waits for another
//                      thread's in-flight planning before serving a cheap
//                      sequential fallback plan (default 0 = wait forever)
// --max-queue-depth N  shed load: admissions beyond N queued requests answer
//                      kUnavailable immediately (default 0 = unbounded)
// --metrics-out PATH   write metrics as JSON: {"registry": <process-global
//                      obs registry>, "serve": <the service's per-worker
//                      metric shards, merged>}
// --trace-out PATH     enable request tracing and write Chrome/Perfetto
//                      trace-event JSON (open at https://ui.perfetto.dev):
//                      per-request spans (queue -> plan -> exec) plus
//                      flight-recorder dumps for every degraded request
//                      (deadline exceeded / shed / planner-timeout fallback)
// --calibration-out PATH   enable plan-quality calibration and write the
//                      cumulative predicted-vs-observed report (per-plan
//                      regret, per-attribute drift scores) as JSON
// --serve-report-out PATH  write the ServeReport (request counts + latency
//                      histogram with bucket bounds) as JSON
// --drift-threshold X  enable the drift monitor: when the per-window max
//                      attribute drift exceeds X for --drift-windows
//                      consecutive windows, bump the estimator version and
//                      invalidate the plan cache (default 0 = report only)
// --drift-windows K    consecutive over-threshold windows before firing
//                      (default 2)
// --drift-interval-ms T    drift monitor snapshot cadence (default 100)
// --robust-drift       widen-don't-invalidate: firing windows install an
//                      uncertainty box from the observed signed drift and
//                      workers replan with the minmax-regret planner over
//                      it; re-fires only on drift exceeding the box
// --shift-at F         adversarial drift injection: after fraction F of each
//                      client's requests, served tuples are complemented
//                      (v -> domain-1-v), shifting the distribution away
//                      from the training split (default off)
// --seed S             workload RNG seed (default 20050405)
//
// Distributed mode (--shards N, N >= 1) replays whole-dataset queries
// through a dist::Coordinator instead of per-tuple requests through the
// QueryService: the test split is partitioned across N executor shards and
// every query scatter-gathers over all of them.
//
// --shards N               executor shards (default 0 = per-tuple serve mode)
// --partition hash|range   row partitioning scheme (default hash)
// --shard-deadline-ms D    per-query gather budget; shards that overrun
//                          degrade their partition to Unknown rows
//                          (default 0 = wait forever)
// --shard-fault-profile P  shard fault mini-language, e.g.
//                          "kill@1=50,delay@2=20": shard 1 dies after 50
//                          requests, shard 2 sleeps 20ms per request
// --fault-profile P        row-level acquisition faults inside every shard
//                          (fault/fault.h mini-language, keyed by row id)
//
// Run `caqp_serve --help` for the full grouped flag listing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/query_signature.h"
#include "data/synthetic_gen.h"
#include "dist/coordinator.h"
#include "fault/fault.h"
#include "obs/calibration.h"
#include "obs/export.h"
#include "obs/exposer.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "opt/regret.h"
#include "opt/split_points.h"
#include "opt/uncertainty.h"
#include "prob/dataset_estimator.h"
#include "serve/query_service.h"

using namespace caqp;

namespace {

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "caqp_serve: %s\n", msg.c_str());
  std::exit(1);
}

struct Config {
  size_t workers = 4;
  size_t clients = 8;
  size_t requests = 20000;
  size_t distinct = 16;
  size_t tuples = 20000;
  uint32_t attrs = 10;
  uint32_t gamma = 4;
  std::string planner = "greedy";
  size_t max_splits = 5;
  size_t cache_capacity = 1024;
  double deadline_ms = 0.0;
  double planner_timeout_ms = 0.0;
  size_t max_queue_depth = 0;
  std::string metrics_out;
  std::string trace_out;
  std::string calibration_out;
  std::string serve_report_out;
  /// Live telemetry plane: -1 = exposer off; >= 0 binds that port (0 picks
  /// an ephemeral port and prints it — how the CI scrape smoke runs).
  int metrics_port = -1;
  /// When the exposer is up, write the bound port here (scrapers poll for
  /// this file instead of parsing stdout).
  std::string metrics_port_file;
  /// Keep the process (and the exposer) alive this long after the replay
  /// finishes, so external scrapers get a stable target.
  double metrics_linger_ms = 0.0;
  /// Span-ring sizing (see serve::QueryService::Options /
  /// dist::Coordinator::Options for the memory-cost arithmetic).
  size_t span_buffer = size_t{1} << 15;
  /// SLO burn-rate monitoring (serve mode): enabled by --slo-latency-ms.
  double slo_latency_ms = 0.0;
  double slo_availability_target = 0.999;
  double slo_latency_target = 0.99;
  double drift_threshold = 0.0;
  int drift_windows = 2;
  double drift_interval_ms = 100.0;
  bool robust_drift = false;
  double shift_at = -1.0;
  uint64_t seed = 20050405;
  // Distributed mode.
  size_t shards = 0;  ///< 0 = per-tuple serve mode
  std::string partition = "hash";
  double shard_deadline_ms = 0.0;
  std::string shard_fault_profile;
  std::string fault_profile;

  bool calibration_on() const {
    return !calibration_out.empty() || drift_threshold > 0.0 || robust_drift;
  }
};

void PrintHelp() {
  std::printf(
      "caqp_serve: workload replay against caqp::serve (per-tuple requests)\n"
      "or caqp::dist (--shards N: whole-dataset scatter-gather queries).\n"
      "\n"
      "workload\n"
      "  --clients N           concurrent client threads (default 8)\n"
      "  --requests N          total requests to replay (default 20000)\n"
      "  --distinct N          distinct queries in the workload (default 16)\n"
      "  --tuples N            synthetic dataset size (default 20000)\n"
      "  --attrs N             synthetic attributes (default 10)\n"
      "  --gamma G             correlation factor, group size G+1 (default 4)\n"
      "  --seed S              workload RNG seed (default 20050405)\n"
      "\n"
      "planning\n"
      "  --planner P           greedy | greedyseq | optseq | naive\n"
      "                        (default greedy)\n"
      "  --max-splits K        greedy split budget (default 5)\n"
      "  --cache-capacity N    plan-cache entries (default 1024)\n"
      "  --no-cache            plan-per-query baseline (capacity 0)\n"
      "  --workers N           service worker threads, serve mode only\n"
      "                        (default 4)\n"
      "\n"
      "robustness (serve mode)\n"
      "  --deadline-ms D       per-request deadline; overruns answer\n"
      "                        kDeadlineExceeded (default 0 = none)\n"
      "  --planner-timeout-ms T  cap on waiting for another thread's\n"
      "                        in-flight planning before serving a cheap\n"
      "                        fallback plan (default 0 = wait forever)\n"
      "  --max-queue-depth N   shed admissions beyond N queued requests\n"
      "                        (default 0 = unbounded)\n"
      "\n"
      "drift / calibration\n"
      "  --calibration-out PATH  write predicted-vs-observed report as JSON\n"
      "  --drift-threshold X   invalidate plans when per-window attribute\n"
      "                        drift exceeds X (default 0 = report only)\n"
      "  --drift-windows K     consecutive windows before firing (default 2)\n"
      "  --drift-interval-ms T drift snapshot cadence (default 100)\n"
      "  --robust-drift        widen, don't just invalidate: firing windows\n"
      "                        convert signed drift into an uncertainty box\n"
      "                        and workers replan with the minmax-regret\n"
      "                        planner over it; once a box is installed the\n"
      "                        monitor only re-fires on drift in excess of\n"
      "                        the box (one invalidation per shift)\n"
      "  --shift-at F          complement served tuples after fraction F of\n"
      "                        each client's requests (default off)\n"
      "\n"
      "distributed (--shards)\n"
      "  --shards N            executor shards (default 0 = serve mode)\n"
      "  --partition S         hash | range row partitioning (default hash)\n"
      "  --shard-deadline-ms D per-query gather budget; slow shards degrade\n"
      "                        their partition to Unknown (default 0)\n"
      "  --shard-fault-profile P  e.g. \"kill@1=50,delay@2=20\"\n"
      "  --fault-profile P     row-level acquisition faults inside shards,\n"
      "                        e.g. \"transient=0.1,seed=7\"\n"
      "\n"
      "output / telemetry\n"
      "  --metrics-out PATH    obs metrics registries as JSON\n"
      "  --metrics-port P      serve Prometheus text exposition on\n"
      "                        127.0.0.1:P while the replay runs (0 picks an\n"
      "                        ephemeral port and prints it); GET /metrics\n"
      "                        merges the process registry, the tier's\n"
      "                        per-worker shards, shard health, calibration\n"
      "                        drift/regret and SLO burn gauges\n"
      "  --metrics-port-file PATH  write the bound metrics port here\n"
      "                        (scrapers poll the file, not stdout)\n"
      "  --metrics-linger-ms L keep the exposer up this long after the\n"
      "                        replay finishes (default 0)\n"
      "  --trace-out PATH      Chrome/Perfetto trace-event JSON (enables\n"
      "                        tracing + flight recorder); in dist mode the\n"
      "                        trace is the unified coordinator+shard join\n"
      "                        with a caqpTraceJoin summary\n"
      "  --serve-report-out PATH  ServeReport (serve mode) or DistReport\n"
      "                        (dist mode) as JSON\n"
      "  --span-buffer N       span-ring entries per worker (default 32768;\n"
      "                        ~72 bytes each)\n"
      "\n"
      "slo (serve mode)\n"
      "  --slo-latency-ms T    enable burn-rate SLO monitoring with this\n"
      "                        latency threshold (default off); burns bump\n"
      "                        serve.slo_burns and halve the shed limit\n"
      "  --slo-availability-target X  availability SLO target (default\n"
      "                        0.999)\n"
      "  --slo-latency-target X  fraction of requests under the threshold\n"
      "                        (default 0.99)\n");
}

/// Synthesized calibration gauges for one scrape: cumulative drift and
/// regret as gauges next to the merged registry lines.
void AppendCalibrationGauges(obs::RegistrySnapshot* snap, const char* tier,
                             const obs::CalibrationReport& cal) {
  const std::string prefix = std::string(tier) + ".calibration.";
  snap->counters.push_back({prefix + "executions", cal.executions});
  snap->gauges.push_back({prefix + "regret_per_exec", cal.regret()});
  snap->gauges.push_back({prefix + "max_drift", cal.MaxDrift(1)});
}

/// One /metrics scrape in serve mode: process-global registry merged with
/// the service's per-worker shards, plus SLO burn and calibration gauges.
std::string RenderServeMetrics(const serve::QueryService& service,
                               bool calibration_on) {
  obs::RegistrySnapshot snap = obs::DefaultRegistry().Snapshot();
  snap.MergeFrom(service.metrics().Snapshot());
  if (const obs::SloMonitor* slo = service.slo_monitor()) {
    const obs::SloMonitor::Snapshot s =
        slo->GetSnapshot(obs::MonotonicNowNs());
    snap.gauges.push_back(
        {"serve.slo.availability_ratio", s.availability_ratio});
    snap.gauges.push_back(
        {"serve.slo.availability_fast_burn", s.availability_fast_burn});
    snap.gauges.push_back(
        {"serve.slo.availability_slow_burn", s.availability_slow_burn});
    snap.gauges.push_back({"serve.slo.latency_ratio", s.latency_ratio});
    snap.gauges.push_back(
        {"serve.slo.latency_fast_burn", s.latency_fast_burn});
    snap.gauges.push_back(
        {"serve.slo.latency_slow_burn", s.latency_slow_burn});
    snap.counters.push_back({"serve.slo.burns", s.burns_fired});
  }
  if (calibration_on) {
    AppendCalibrationGauges(&snap, "serve", service.CalibrationSnapshot());
  }
  return obs::RenderPrometheusText(snap);
}

/// One /metrics scrape in dist mode: coordinator + shard registries merged
/// with the process registry, plus per-shard health-state gauges.
std::string RenderDistMetrics(const dist::Coordinator& coord,
                              bool calibration_on) {
  obs::RegistrySnapshot snap = obs::DefaultRegistry().Snapshot();
  snap.MergeFrom(coord.metrics().Snapshot());
  const dist::DistReport report = coord.Report();
  for (const dist::ShardReportRow& row : report.shards) {
    const std::string prefix = "dist.shard." + std::to_string(row.shard);
    // 0 = healthy, 1 = degraded, 2 = dead (dist/health.h).
    snap.gauges.push_back({prefix + ".health_state",
                           static_cast<double>(static_cast<int>(row.state))});
    snap.gauges.push_back(
        {prefix + ".up",
         row.state == dist::ShardHealth::State::kDead ? 0.0 : 1.0});
  }
  if (calibration_on) {
    AppendCalibrationGauges(&snap, "dist", coord.CalibrationSnapshot());
  }
  return obs::RenderPrometheusText(snap);
}

/// Starts the exposer when --metrics-port was given; announces the bound
/// port on stdout and in --metrics-port-file. Returns nullptr when off.
std::unique_ptr<obs::MetricsExposer> MaybeStartExposer(
    const Config& cfg, obs::MetricsExposer::Renderer render) {
  if (cfg.metrics_port < 0) return nullptr;
  obs::MetricsExposer::Options eopts;
  eopts.port = static_cast<uint16_t>(cfg.metrics_port);
  auto exposer =
      std::make_unique<obs::MetricsExposer>(std::move(render), eopts);
  const Status st = exposer->Start();
  if (!st.ok()) Die("--metrics-port: " + st.ToString());
  std::printf("metrics: http://127.0.0.1:%u/metrics\n",
              static_cast<unsigned>(exposer->port()));
  std::fflush(stdout);
  if (!cfg.metrics_port_file.empty()) {
    obs::WriteFileOrComplain(cfg.metrics_port_file,
                             std::to_string(exposer->port()) + "\n");
  }
  return exposer;
}

/// --metrics-linger-ms: hold the exposer up after the replay so external
/// scrapers have a stable target.
void LingerExposer(const Config& cfg, const obs::MetricsExposer* exposer) {
  if (exposer == nullptr || cfg.metrics_linger_ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(cfg.metrics_linger_ms));
}

/// Distinct random conjunctive queries over the (binary) synthetic schema:
/// each query predicates 2..n attributes on a random value, negating some.
std::vector<Query> MakeWorkload(const Schema& schema, const Config& cfg) {
  std::mt19937_64 rng(cfg.seed);
  std::vector<Query> out;
  std::vector<uint64_t> sigs;
  const size_t n = schema.num_attributes();
  while (out.size() < cfg.distinct) {
    std::vector<AttrId> attrs(n);
    for (size_t i = 0; i < n; ++i) attrs[i] = static_cast<AttrId>(i);
    std::shuffle(attrs.begin(), attrs.end(), rng);
    const size_t arity = 2 + rng() % (n - 1);
    Conjunct preds;
    for (size_t i = 0; i < arity; ++i) {
      const Value v = static_cast<Value>(
          rng() % schema.domain_size(attrs[i]));
      preds.emplace_back(attrs[i], v, v, /*negated=*/rng() % 4 == 0);
    }
    Query q = Query::Conjunction(std::move(preds));
    // Reject signature duplicates so --distinct is honest.
    const uint64_t sig = QuerySignature(q);
    if (std::find(sigs.begin(), sigs.end(), sig) != sigs.end()) continue;
    sigs.push_back(sig);
    out.push_back(std::move(q));
  }
  return out;
}

/// Per-worker planning bundle: a DatasetEstimator over the shared training
/// split, plus the chosen planner. The estimator is immutable once built
/// and could be shared (prob/dataset_estimator.h); its index is a few
/// bitmaps per attribute value, so one per bundle keeps bundles
/// self-contained at little memory cost. With --robust-drift, the chosen planner becomes the
/// point planner inside an opt::RegretPlanner that reads the shared
/// uncertainty box the drift monitor widens.
class WorkloadPlanBuilder : public serve::PlanBuilder {
 public:
  WorkloadPlanBuilder(const Dataset& train,
                      const AcquisitionCostModel& cost_model,
                      const SplitPointSet& splits, const Config& cfg,
                      std::shared_ptr<opt::SharedUncertaintyBox> robust_box =
                          nullptr)
      : estimator_(train), cost_model_(&cost_model),
        robust_box_(std::move(robust_box)) {
    if (cfg.planner == "greedy") {
      GreedyPlanner::Options gopts;
      gopts.split_points = &splits;
      gopts.seq_solver = &greedyseq_;
      gopts.max_splits = cfg.max_splits;
      planner_ = std::make_unique<GreedyPlanner>(estimator_, cost_model,
                                                 gopts);
    } else if (cfg.planner == "greedyseq") {
      planner_ = std::make_unique<SequentialPlanner>(estimator_, cost_model,
                                                     greedyseq_, "GreedySeq");
    } else if (cfg.planner == "optseq") {
      planner_ = std::make_unique<SequentialPlanner>(estimator_, cost_model,
                                                     optseq_, "OptSeq");
    } else if (cfg.planner == "naive") {
      planner_ = std::make_unique<NaivePlanner>(estimator_, cost_model);
    } else {
      Die("unknown --planner " + cfg.planner);
    }
    fingerprint_ = std::hash<std::string>{}(cfg.planner) ^
                   (cfg.max_splits * 0x9e3779b97f4a7c15ULL);
    if (robust_box_ != nullptr) {
      // The point planner stays alive as the regret planner's candidate-0
      // source and degenerate-box fallback: until the first widening the
      // box is degenerate and plans are bit-identical to the point plans.
      point_planner_ = std::move(planner_);
      opt::RegretPlanner::Options ropts;
      ropts.point_planner = point_planner_.get();
      ropts.box_provider = [box = robust_box_] { return box->Get(); };
      planner_ = std::make_unique<opt::RegretPlanner>(
          estimator_, cost_model, std::move(ropts));
      fingerprint_ ^= 0x5e67e7a11dbadb0full;  // regret wrapper != point plan
    }
  }

  Plan Build(const Query& query) override {
    return planner_->BuildPlan(query);
  }

  /// Served when the configured planner overruns --planner-timeout-ms: a
  /// split-free sequential plan is orders of magnitude cheaper to build and
  /// still correct, just less energy-optimal.
  Plan BuildFallback(const Query& query) override {
    SequentialPlanner fallback(estimator_, *cost_model_, greedyseq_,
                               "GreedySeqFallback");
    return fallback.BuildPlan(query);
  }

  uint64_t ConfigFingerprint() const override { return fingerprint_; }

  /// Plans are stamped with the training estimator's beliefs so the
  /// calibration report can score them against live traffic.
  CondProbEstimator* CalibrationEstimator() override { return &estimator_; }

  /// Robust mode: report the current shared box so CompileForServe stamps
  /// the interval cost promise onto the plan's estimates.
  bool PlanningBox(opt::UncertaintyBox* out) override {
    if (robust_box_ == nullptr) return false;
    *out = robust_box_->Get();
    return true;
  }

 private:
  DatasetEstimator estimator_;
  const AcquisitionCostModel* cost_model_;
  std::shared_ptr<opt::SharedUncertaintyBox> robust_box_;
  GreedySeqSolver greedyseq_;
  OptSeqSolver optseq_;
  std::unique_ptr<Planner> point_planner_;  // kept alive under planner_
  std::unique_ptr<Planner> planner_;
  uint64_t fingerprint_ = 0;
};

/// Distributed replay: a Coordinator over the test split, whole-dataset
/// queries scatter-gathered across --shards executor shards. Returns the
/// process exit code.
int RunDist(const Config& cfg, const Dataset& train, const Dataset& test,
            const AcquisitionCostModel& cost_model,
            const SplitPointSet& splits,
            const std::vector<Query>& workload) {
  dist::Coordinator::Options dopts;
  const Result<dist::PartitionSpec::Scheme> scheme =
      dist::PartitionSpec::ParseScheme(cfg.partition);
  if (!scheme.ok()) Die("--partition: " + scheme.status().ToString());
  dopts.partition.scheme = scheme.value();
  dopts.partition.num_shards = cfg.shards;
  dopts.plan_cache_capacity = cfg.cache_capacity;
  dopts.shard_deadline_seconds = cfg.shard_deadline_ms / 1000.0;
  dopts.enable_tracing = !cfg.trace_out.empty();
  dopts.enable_calibration = cfg.calibration_on();
  dopts.max_span_events_per_worker = cfg.span_buffer;
  if (!cfg.shard_fault_profile.empty()) {
    const Result<dist::ShardFaultSpec> faults =
        dist::ShardFaultSpec::Parse(cfg.shard_fault_profile);
    if (!faults.ok()) {
      Die("--shard-fault-profile: " + faults.status().ToString());
    }
    dopts.shard_faults = faults.value();
  }
  if (!cfg.fault_profile.empty()) {
    const Result<FaultSpec> faults = FaultSpec::Parse(cfg.fault_profile);
    if (!faults.ok()) Die("--fault-profile: " + faults.status().ToString());
    dopts.acquisition_faults = faults.value();
  }

  dist::Coordinator coord(
      test, cost_model,
      [&] {
        return std::make_unique<WorkloadPlanBuilder>(train, cost_model,
                                                     splits, cfg);
      },
      dopts);
  std::printf(
      "dist: %zu shards (%s partition), %zu rows, deadline %.1fms\n\n",
      coord.num_shards(), cfg.partition.c_str(), coord.num_rows(),
      cfg.shard_deadline_ms);
  const std::unique_ptr<obs::MetricsExposer> exposer = MaybeStartExposer(
      cfg, [&coord, calibration_on = cfg.calibration_on()] {
        return RenderDistMetrics(coord, calibration_on);
      });

  std::vector<std::thread> clients;
  std::vector<size_t> verdict_errors(cfg.clients, 0);
  std::vector<size_t> unknown_rows(cfg.clients, 0);
  std::vector<size_t> degraded(cfg.clients, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(cfg.seed ^ (0xd1u + c));
      const size_t quota =
          cfg.requests / cfg.clients + (c < cfg.requests % cfg.clients);
      for (size_t r = 0; r < quota; ++r) {
        Conjunct preds = workload[rng() % workload.size()].predicates();
        std::shuffle(preds.begin(), preds.end(), rng);
        const Query q = Query::Conjunction(std::move(preds));
        const dist::Coordinator::Response resp = coord.Execute(q);
        if (!resp.ok()) {
          ++verdict_errors[c];
          continue;
        }
        degraded[c] += resp.degraded();
        unknown_rows[c] += resp.unknown_rows;
        // The counts are the shards' sums; the verdicts must recount to them.
        size_t matches = 0;
        size_t unknown = 0;
        for (Truth t : resp.row_verdicts) {
          matches += t == Truth::kTrue;
          unknown += t == Truth::kUnknown;
        }
        if (matches != resp.matches || unknown != resp.unknown_rows) {
          ++verdict_errors[c];
        }
        // Spot-check: every defined verdict must agree with ground truth.
        for (int probe = 0; probe < 32; ++probe) {
          const RowId row =
              static_cast<RowId>(rng() % test.num_rows());
          if (resp.row_verdicts[row] == Truth::kUnknown) continue;
          if ((resp.row_verdicts[row] == Truth::kTrue) !=
              q.Matches(test.GetTuple(row))) {
            ++verdict_errors[c];
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  size_t total_errors = 0, total_unknown = 0, total_degraded = 0;
  for (size_t c = 0; c < cfg.clients; ++c) {
    total_errors += verdict_errors[c];
    total_unknown += unknown_rows[c];
    total_degraded += degraded[c];
  }
  const dist::DistReport report = coord.Report();
  const double qps = static_cast<double>(cfg.requests) / elapsed;
  CAQP_OBS_GAUGE_SET("dist.replay.throughput_qps", qps);
  CAQP_OBS_GAUGE_SET("dist.replay.elapsed_seconds", elapsed);

  std::printf("replayed %zu queries in %.3fs  (%.0f q/s)\n", cfg.requests,
              elapsed, qps);
  std::printf(
      "degraded queries: %zu   unknown rows served: %zu   verdict errors: "
      "%zu\n",
      total_degraded, total_unknown, total_errors);
  std::printf(
      "coordinator: %llu planned, %llu cache hits, %llu stragglers, "
      "%llu probes\n",
      static_cast<unsigned long long>(report.planned),
      static_cast<unsigned long long>(report.cache_hits),
      static_cast<unsigned long long>(report.stragglers),
      static_cast<unsigned long long>(report.probes));
  std::printf(
      "query latency: mean %.1fus  p50 %.1fus  p99 %.1fus  max %.1fus\n",
      report.query_latency.mean() * 1e6, report.query_latency.p50() * 1e6,
      report.query_latency.p99() * 1e6, report.query_latency.max * 1e6);
  for (const dist::ShardReportRow& row : report.shards) {
    std::printf(
        "  shard %zu: %-8s %6zu rows  %6llu reqs  %4llu failures  "
        "%4llu timeouts  p99 %.1fus\n",
        row.shard, dist::ShardHealthStateName(row.state), row.rows,
        static_cast<unsigned long long>(row.requests),
        static_cast<unsigned long long>(row.failures),
        static_cast<unsigned long long>(row.timeouts),
        row.exec_latency.p99() * 1e6);
  }

  if (cfg.calibration_on()) {
    const obs::CalibrationReport cal = coord.CalibrationSnapshot();
    std::printf(
        "calibration: %llu executions, realized %.1f vs predicted %.1f "
        "(regret %+.3f/exec)\n",
        static_cast<unsigned long long>(cal.executions), cal.realized_cost,
        cal.predicted_cost, cal.regret());
    if (!cfg.calibration_out.empty()) {
      const std::string cal_json =
          obs::CalibrationReportToJson(cal, &test.schema());
      if (obs::WriteFileOrComplain(cfg.calibration_out, cal_json)) {
        std::printf("[wrote %s]\n", cfg.calibration_out.c_str());
      }
    }
  }
  if (!cfg.serve_report_out.empty()) {
    if (obs::WriteFileOrComplain(cfg.serve_report_out,
                                 dist::DistReportToJson(report))) {
      std::printf("[wrote %s]\n", cfg.serve_report_out.c_str());
    }
  }
  if (!cfg.trace_out.empty()) {
    // Unified trace: coordinator and shard spans joined per trace_id (every
    // shard span parented under the coordinator's request span) plus a
    // caqpTraceJoin summary block asserting the join's integrity.
    const std::string trace_json =
        obs::UnifiedTraceToJson(coord.trace_recorder());
    if (obs::WriteFileOrComplain(cfg.trace_out, trace_json)) {
      std::printf("[wrote %s — open at https://ui.perfetto.dev]\n",
                  cfg.trace_out.c_str());
    }
  }
  if (!cfg.metrics_out.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("registry");
    obs::WriteRegistrySnapshot(w, obs::DefaultRegistry().Snapshot());
    w.Key("dist");
    obs::WriteRegistrySnapshot(w, coord.metrics().Snapshot());
    w.EndObject();
    if (obs::WriteFileOrComplain(cfg.metrics_out, w.TakeString())) {
      std::printf("[wrote %s]\n", cfg.metrics_out.c_str());
    }
  }
  LingerExposer(cfg, exposer.get());
  if (total_errors != 0) {
    std::fprintf(stderr, "caqp_serve: verdict mismatches detected\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value after " + arg);
      return argv[++i];
    };
    auto next_num = [&]() {
      return std::strtoull(next().c_str(), nullptr, 10);
    };
    if (arg == "--workers") {
      cfg.workers = next_num();
    } else if (arg == "--clients") {
      cfg.clients = next_num();
    } else if (arg == "--requests") {
      cfg.requests = next_num();
    } else if (arg == "--distinct") {
      cfg.distinct = next_num();
    } else if (arg == "--tuples") {
      cfg.tuples = next_num();
    } else if (arg == "--attrs") {
      cfg.attrs = static_cast<uint32_t>(next_num());
    } else if (arg == "--gamma") {
      cfg.gamma = static_cast<uint32_t>(next_num());
    } else if (arg == "--planner") {
      cfg.planner = next();
    } else if (arg == "--max-splits") {
      cfg.max_splits = next_num();
    } else if (arg == "--cache-capacity") {
      cfg.cache_capacity = next_num();
    } else if (arg == "--no-cache") {
      cfg.cache_capacity = 0;
    } else if (arg == "--deadline-ms") {
      cfg.deadline_ms = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--planner-timeout-ms") {
      cfg.planner_timeout_ms = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--max-queue-depth") {
      cfg.max_queue_depth = next_num();
    } else if (arg == "--metrics-out") {
      cfg.metrics_out = next();
    } else if (arg == "--metrics-port") {
      cfg.metrics_port = static_cast<int>(next_num());
    } else if (arg == "--metrics-port-file") {
      cfg.metrics_port_file = next();
    } else if (arg == "--metrics-linger-ms") {
      cfg.metrics_linger_ms = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--span-buffer") {
      cfg.span_buffer = next_num();
    } else if (arg == "--slo-latency-ms") {
      cfg.slo_latency_ms = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--slo-availability-target") {
      cfg.slo_availability_target = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--slo-latency-target") {
      cfg.slo_latency_target = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace-out") {
      cfg.trace_out = next();
    } else if (arg == "--calibration-out") {
      cfg.calibration_out = next();
    } else if (arg == "--serve-report-out") {
      cfg.serve_report_out = next();
    } else if (arg == "--drift-threshold") {
      cfg.drift_threshold = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--drift-windows") {
      cfg.drift_windows = static_cast<int>(next_num());
    } else if (arg == "--drift-interval-ms") {
      cfg.drift_interval_ms = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--robust-drift") {
      cfg.robust_drift = true;
    } else if (arg == "--shift-at") {
      cfg.shift_at = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--seed") {
      cfg.seed = next_num();
    } else if (arg == "--shards") {
      cfg.shards = next_num();
    } else if (arg == "--partition") {
      cfg.partition = next();
    } else if (arg == "--shard-deadline-ms") {
      cfg.shard_deadline_ms = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--shard-fault-profile") {
      cfg.shard_fault_profile = next();
    } else if (arg == "--fault-profile") {
      cfg.fault_profile = next();
    } else if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (cfg.distinct == 0 || cfg.requests == 0 || cfg.clients == 0) {
    Die("--distinct, --requests and --clients must be positive");
  }

  SyntheticDataOptions dopts;
  dopts.n = cfg.attrs;
  dopts.gamma = cfg.gamma;
  dopts.sel = 0.6;
  dopts.tuples = cfg.tuples;
  dopts.seed = cfg.seed;
  const Dataset data = GenerateSyntheticData(dopts);
  const Schema& schema = data.schema();
  const auto [train, test] = data.SplitFraction(0.6);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));

  const std::vector<Query> workload = MakeWorkload(schema, cfg);
  if (cfg.shards > 0) {
    std::printf(
        "dataset: %u binary attrs, gamma=%u, %zu train / %zu test rows\n"
        "workload: %zu distinct queries, %zu requests, %zu clients, "
        "planner=%s, cache=%zu\n",
        cfg.attrs, cfg.gamma, train.num_rows(), test.num_rows(),
        cfg.distinct, cfg.requests, cfg.clients, cfg.planner.c_str(),
        cfg.cache_capacity);
    return RunDist(cfg, train, test, cost_model, splits, workload);
  }
  std::printf(
      "dataset: %u binary attrs, gamma=%u, %zu train / %zu test rows\n"
      "workload: %zu distinct queries, %zu requests, %zu clients, "
      "%zu workers, planner=%s, cache=%zu\n\n",
      cfg.attrs, cfg.gamma, train.num_rows(), test.num_rows(), cfg.distinct,
      cfg.requests, cfg.clients, cfg.workers, cfg.planner.c_str(),
      cfg.cache_capacity);

  serve::QueryService::Options sopts;
  sopts.num_workers = cfg.workers;
  sopts.cache_capacity = cfg.cache_capacity;
  sopts.default_deadline_seconds = cfg.deadline_ms / 1000.0;
  sopts.planner_timeout_seconds = cfg.planner_timeout_ms / 1000.0;
  sopts.max_queue_depth = cfg.max_queue_depth;
  sopts.enable_tracing = !cfg.trace_out.empty();
  sopts.enable_calibration = cfg.calibration_on();
  sopts.max_span_events_per_worker = cfg.span_buffer;
  if (cfg.slo_latency_ms > 0.0) {
    sopts.enable_slo = true;
    sopts.slo.latency_threshold_seconds = cfg.slo_latency_ms / 1000.0;
    sopts.slo.availability_target = cfg.slo_availability_target;
    sopts.slo.latency_target = cfg.slo_latency_target;
  }
  sopts.drift.threshold = cfg.drift_threshold;
  sopts.drift.consecutive_windows = cfg.drift_windows;
  sopts.drift.min_window_evals = 32;
  // --robust-drift: firing windows widen a shared uncertainty box (pushed
  // to the per-worker regret planners via on_widen) instead of merely
  // invalidating; see serve::DriftPolicy.
  std::shared_ptr<opt::SharedUncertaintyBox> robust_box;
  if (cfg.robust_drift) {
    robust_box = std::make_shared<opt::SharedUncertaintyBox>();
    sopts.drift.widen_on_drift = true;
    sopts.drift.on_widen = [robust_box](const opt::UncertaintyBox& box,
                                        const obs::CalibrationReport&) {
      robust_box->Set(box);
    };
  }
  serve::QueryService service(
      schema, cost_model,
      [&] {
        return std::make_unique<WorkloadPlanBuilder>(train, cost_model,
                                                     splits, cfg, robust_box);
      },
      sopts);

  const std::unique_ptr<obs::MetricsExposer> exposer = MaybeStartExposer(
      cfg, [&service, calibration_on = cfg.calibration_on()] {
        return RenderServeMetrics(service, calibration_on);
      });

  // Drift monitor: periodic calibration windows concurrent with traffic.
  // With --drift-threshold, crossing the bar for --drift-windows consecutive
  // windows bumps the estimator version and invalidates the plan cache.
  std::atomic<bool> replay_done{false};
  std::atomic<size_t> drift_fired{0};
  std::atomic<double> peak_drift{0.0};
  std::thread drift_monitor;
  if (cfg.calibration_on()) {
    drift_monitor = std::thread([&] {
      const auto interval = std::chrono::duration<double, std::milli>(
          cfg.drift_interval_ms);
      while (!replay_done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(interval);
        const serve::DriftStatus st = service.CheckDrift();
        double prev = peak_drift.load(std::memory_order_relaxed);
        while (st.max_drift > prev &&
               !peak_drift.compare_exchange_weak(prev, st.max_drift)) {
        }
        if (st.fired) drift_fired.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> clients;
  std::vector<size_t> matches(cfg.clients, 0);
  std::vector<size_t> verdict_errors(cfg.clients, 0);
  std::vector<size_t> rejected(cfg.clients, 0);
  std::vector<size_t> fallbacks(cfg.clients, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(cfg.seed ^ (0xc1u + c));
      const size_t quota =
          cfg.requests / cfg.clients + (c < cfg.requests % cfg.clients);
      const size_t shift_after =
          cfg.shift_at >= 0.0
              ? static_cast<size_t>(static_cast<double>(quota) * cfg.shift_at)
              : quota;
      for (size_t r = 0; r < quota; ++r) {
        // Re-shuffle the predicate order: the signature (and so the cache)
        // must be insensitive to it.
        Conjunct preds = workload[rng() % workload.size()].predicates();
        std::shuffle(preds.begin(), preds.end(), rng);
        Query q = Query::Conjunction(std::move(preds));
        Tuple tuple = test.GetTuple(
            static_cast<RowId>(rng() % test.num_rows()));
        if (r >= shift_after) {
          // Injected distribution shift: complement every attribute. The
          // training estimator's beliefs are now maximally wrong while the
          // tuples stay schema-valid, so drift scores must climb.
          for (size_t a = 0; a < tuple.size(); ++a) {
            tuple[a] = static_cast<Value>(
                schema.domain_size(static_cast<AttrId>(a)) - 1 - tuple[a]);
          }
        }
        const bool expected = q.Matches(tuple);
        const serve::QueryService::Response resp =
            service.SubmitAndWait(std::move(q), std::move(tuple));
        if (!resp.ok()) {  // deadline exceeded or shed under --max-queue-depth
          ++rejected[c];
          continue;
        }
        fallbacks[c] += resp.fallback;
        matches[c] += resp.exec.verdict;
        verdict_errors[c] += resp.exec.verdict != expected;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  replay_done.store(true, std::memory_order_release);
  if (drift_monitor.joinable()) drift_monitor.join();

  size_t total_matches = 0, total_errors = 0;
  size_t total_rejected = 0, total_fallbacks = 0;
  for (size_t c = 0; c < cfg.clients; ++c) {
    total_matches += matches[c];
    total_errors += verdict_errors[c];
    total_rejected += rejected[c];
    total_fallbacks += fallbacks[c];
  }
  const serve::ShardedPlanCache::Stats cs = service.cache().stats();
  const serve::ServeReport report = service.Report();
  const double rps = static_cast<double>(cfg.requests) / elapsed;
  CAQP_OBS_GAUGE_SET("serve.replay.throughput_rps", rps);
  CAQP_OBS_GAUGE_SET("serve.replay.elapsed_seconds", elapsed);

  std::printf("replayed %zu requests in %.3fs  (%.0f req/s)\n", cfg.requests,
              elapsed, rps);
  std::printf("matches: %zu   verdict errors: %zu\n", total_matches,
              total_errors);
  if (cfg.deadline_ms > 0 || cfg.max_queue_depth > 0 ||
      cfg.planner_timeout_ms > 0) {
    std::printf("rejected (deadline/shed): %zu   fallback plans: %zu\n",
                total_rejected, total_fallbacks);
  }
  std::printf(
      "cache: %llu hits / %llu misses (%.1f%% hit rate), %llu inserts, "
      "%llu evictions\n",
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses),
      100.0 * static_cast<double>(cs.hits) /
          static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)),
      static_cast<unsigned long long>(cs.inserts),
      static_cast<unsigned long long>(cs.evictions));
  // Percentiles come from the merged per-worker obs::Histogram shards —
  // every completed request, not a reservoir sample.
  std::printf(
      "latency: mean %.1fus  p50 %.1fus  p90 %.1fus  p99 %.1fus  "
      "p99.9 %.1fus  max %.1fus\n",
      report.latency.mean() * 1e6, report.latency.p50() * 1e6,
      report.latency.p90() * 1e6, report.latency.p99() * 1e6,
      report.latency.p999() * 1e6, report.latency.max * 1e6);
  if (report.deadline_exceeded + report.shed + report.fallbacks > 0) {
    std::printf(
        "degraded: %llu deadline-exceeded, %llu shed, %llu fallbacks "
        "(%zu flight-recorder dumps)\n",
        static_cast<unsigned long long>(report.deadline_exceeded),
        static_cast<unsigned long long>(report.shed),
        static_cast<unsigned long long>(report.fallbacks),
        service.trace_recorder().incident_count());
  }
  if (cfg.calibration_on()) {
    const obs::CalibrationReport cal = service.CalibrationSnapshot();
    std::printf(
        "calibration: %llu executions, realized %.1f vs predicted %.1f "
        "(regret %+.3f/exec), peak window drift %.3f\n",
        static_cast<unsigned long long>(cal.executions), cal.realized_cost,
        cal.predicted_cost, cal.regret(),
        peak_drift.load(std::memory_order_relaxed));
    if (cfg.drift_threshold > 0.0) {
      std::printf(
          "drift policy: threshold %.2f x%d windows -> %zu invalidations, "
          "estimator version now %llu\n",
          cfg.drift_threshold, cfg.drift_windows, drift_fired.load(),
          static_cast<unsigned long long>(service.estimator_version()));
    }
    if (cfg.robust_drift) {
      std::printf("robust drift: installed box %s\n",
                  service.CurrentUncertaintyBox().ToString().c_str());
    }
    if (!cfg.calibration_out.empty()) {
      const std::string cal_json = obs::CalibrationReportToJson(cal, &schema);
      if (obs::WriteFileOrComplain(cfg.calibration_out, cal_json)) {
        std::printf("[wrote %s]\n", cfg.calibration_out.c_str());
      }
    }
  }
  if (!cfg.serve_report_out.empty()) {
    if (obs::WriteFileOrComplain(cfg.serve_report_out,
                                 serve::ServeReportToJson(report))) {
      std::printf("[wrote %s]\n", cfg.serve_report_out.c_str());
    }
  }
  if (total_errors != 0) {
    std::fprintf(stderr, "caqp_serve: verdict mismatches detected\n");
    return 1;
  }

  if (!cfg.trace_out.empty()) {
    const std::string trace_json =
        obs::TraceEventsToJson(service.trace_recorder());
    if (obs::WriteFileOrComplain(cfg.trace_out, trace_json)) {
      std::printf("[wrote %s — open at https://ui.perfetto.dev]\n",
                  cfg.trace_out.c_str());
    }
  }
  if (!cfg.metrics_out.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("registry");
    obs::WriteRegistrySnapshot(w, obs::DefaultRegistry().Snapshot());
    w.Key("serve");
    obs::WriteRegistrySnapshot(w, service.metrics().Snapshot());
    w.EndObject();
    if (obs::WriteFileOrComplain(cfg.metrics_out, w.TakeString())) {
      std::printf("[wrote %s]\n", cfg.metrics_out.c_str());
    }
    std::printf("\n%s", obs::RegistryToMarkdown(obs::DefaultRegistry()).c_str());
  }
  if (cfg.slo_latency_ms > 0.0) {
    std::printf("slo: %llu burn fires\n",
                static_cast<unsigned long long>(service.slo_burns_fired()));
  }
  LingerExposer(cfg, exposer.get());
  return 0;
}
