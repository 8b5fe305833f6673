// caqp_simulate: end-to-end sensor-network simulation from the command
// line. Generates one of the built-in network traces (lab | garden |
// synthetic), trains a conditional plan at the basestation, disseminates it
// over a (configurable, lossy) radio, runs a continuous query, and prints
// per-planner energy totals -- the whole Figure 4 loop in one command.
//
// Example:
//   caqp_simulate --network garden --motes 5 --epochs 2000
//     --max-splits 5 --drop-prob 0.05
//
// --network lab|garden|synthetic   trace generator (default garden)
// --motes N                        motes in the network (default 5)
// --epochs N                       continuous-query epochs (default 2000)
// --max-splits K                   heuristic split budget (default 5)
// --drop-prob P                    radio message loss (default 0)
// --limit N                        stop after N matches (LIMIT query mode)
// --fault-profile SPEC             inject sensor faults on the mote, e.g.
//                                  "transient=0.1,stuck=0.01,spike=0.05,
//                                  spike_mult=3,seed=7" (see FaultSpec::Parse)
// --policy unknown|retry|abort     degradation policy under faults
//                                  (default retry)
// --max-retries N                  attempts per acquisition for --policy
//                                  retry, including the first (default 3)
// --metrics-out PATH               write the run's metrics registry
//                                  (radio/mote/basestation counters, energy
//                                  stats) as JSON; a markdown summary is
//                                  printed to stdout
// --calibration-out PATH           write the predicted-vs-observed
//                                  calibration report (local replay of each
//                                  plan over the held-out test split) as
//                                  JSON; a per-planner regret and top-drift
//                                  summary is printed to stdout either way

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/query_signature.h"
#include "data/garden_gen.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "obs/calibration.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "plan/compiled_plan.h"
#include "plan/plan_estimates.h"
#include "data/lab_gen.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "net/basestation.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

namespace {

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "caqp_simulate: %s\n", msg.c_str());
  std::exit(1);
}

struct Config {
  std::string network = "garden";
  size_t motes = 5;
  size_t epochs = 2000;
  size_t max_splits = 5;
  double drop_prob = 0.0;
  size_t limit = 0;  // 0: continuous query
  FaultSpec fault;
  DegradationPolicy policy = DegradationPolicy::Retry(3);
  std::string metrics_out;
  std::string calibration_out;
};

/// Builds the trace and a representative query for the chosen network.
std::pair<Dataset, Query> MakeScenario(const Config& cfg) {
  if (cfg.network == "garden") {
    GardenDataOptions opts;
    opts.num_motes = cfg.motes;
    opts.epochs = 20000;
    Dataset data = GenerateGardenData(opts);
    const GardenAttrs attrs = ResolveGardenAttrs(data.schema());
    Conjunct preds;
    for (AttrId a : attrs.temperature) {
      preds.emplace_back(a, 5, 11);  // warm
    }
    for (AttrId a : attrs.humidity) {
      preds.emplace_back(a, 5, 11);  // humid
    }
    return {std::move(data), Query::Conjunction(std::move(preds))};
  }
  if (cfg.network == "lab") {
    LabDataOptions opts;
    opts.num_motes = std::max<size_t>(2, cfg.motes);
    opts.readings = 40000;
    Dataset data = GenerateLabData(opts);
    const LabAttrs attrs = ResolveLabAttrs(data.schema());
    return {std::move(data),
            Query::Conjunction({Predicate(attrs.light, 5, 15),
                                Predicate(attrs.temperature, 0, 7),
                                Predicate(attrs.humidity, 0, 7)})};
  }
  if (cfg.network == "synthetic") {
    SyntheticDataOptions opts;
    opts.n = 10;
    opts.gamma = 4;
    opts.sel = 0.6;
    opts.tuples = 20000;
    Dataset data = GenerateSyntheticData(opts);
    Query q = SyntheticAllExpensiveQuery(data.schema());
    return {std::move(data), std::move(q)};
  }
  Die("unknown --network " + cfg.network);
}

/// Runs dissemination + query for one plan; prints and returns total mote
/// energy (acquisition + radio).
double RunOnce(const char* label, const CompiledPlan& plan,
               const Schema& schema, const AcquisitionCostModel& cm,
               const Dataset& live, const Config& cfg) {
  Radio radio(Radio::Options{.cost_per_byte = 0.05,
                             .drop_probability = cfg.drop_prob});
  Basestation base(schema, cm, radio);
  std::vector<std::unique_ptr<Mote>> motes;
  std::vector<Mote*> ptrs;
  motes.push_back(std::make_unique<Mote>(
      0, schema, cm, [&live](size_t epoch, AttrId attr) {
        return live.at(static_cast<RowId>(epoch % live.num_rows()), attr);
      }));
  ptrs.push_back(motes.back().get());
  // Draws are keyed by epoch, so every planner sees the same fault at the
  // same epoch and attribute, and the energy comparison stays
  // apples-to-apples under faults.
  std::optional<FaultInjector> injector;
  if (cfg.fault.any()) {
    injector.emplace(cfg.fault);
    motes[0]->SetFaultInjector(&*injector);
    motes[0]->SetDegradationPolicy(cfg.policy);
  }
  obs::Counter& injected = obs::DefaultRegistry().GetCounter("fault.injected");
  const uint64_t injected_before = injected.value();
  const size_t installed = base.Disseminate(plan, ptrs);
  if (installed == 0) {
    std::printf("%-12s plan lost in transit (drop-prob too high?)\n", label);
    return 0.0;
  }

  if (cfg.limit > 0) {
    const auto res = base.RunLimitQuery(ptrs, cfg.limit, cfg.epochs);
    std::printf("%-12s LIMIT %zu: %zu matches in %zu epochs, "
                "acquisition=%.0f, mote energy=%.0f\n",
                label, cfg.limit, res.matches, res.epochs_run,
                res.acquisition_cost, motes[0]->energy().spent());
    return motes[0]->energy().spent();
  }
  const auto reports = base.RunContinuousQuery(ptrs, cfg.epochs);
  double acquisition = 0;
  size_t matches = 0, unknowns = 0;
  for (const auto& rep : reports) {
    acquisition += rep.acquisition_cost;
    matches += rep.matches;
    unknowns += rep.unknown_verdicts;
  }
  std::printf("%-12s %zu epochs: %zu matches, plan=%zuB, acquisition=%.0f, "
              "mote energy=%.0f\n",
              label, cfg.epochs, matches, PlanSizeBytes(plan), acquisition,
              motes[0]->energy().spent());
  if (injector) {
    std::printf("%-12s faults injected=%llu, unknown verdicts=%zu "
                "(%.2f%% of epochs)\n",
                "",
                static_cast<unsigned long long>(injected.value() -
                                                injected_before),
                unknowns,
                100.0 * static_cast<double>(unknowns) /
                    static_cast<double>(std::max<size_t>(1, cfg.epochs)));
  }
  return motes[0]->energy().spent();
}

/// Offline twin of the serve layer's calibration loop: compiles each
/// planner's plan with predicted side tables from the training estimator,
/// replays it over the held-out test split with a per-node ExecutionProfile,
/// and joins the two into a CalibrationReport. Prints per-planner
/// predicted-vs-realized cost (regret) and the highest-drift attributes.
/// Train and test come from the same trace, so large drift here means the
/// estimator itself is miscalibrated, not that the distribution moved.
obs::CalibrationReport CalibrateLocally(
    const std::vector<std::pair<const char*, const CompiledPlan*>>& plans,
    const Query& query, const Schema& schema, const AcquisitionCostModel& cm,
    CondProbEstimator& estimator, const Dataset& test) {
  obs::CalibrationAggregator agg(1);
  const uint64_t sig = QuerySignature(query);
  for (size_t i = 0; i < plans.size(); ++i) {
    CompiledPlan compiled = *plans[i].second;
    compiled.AttachEstimates(
        std::make_shared<PlanEstimates>(EstimatePlan(compiled, estimator, cm)));
    auto shared = std::make_shared<const CompiledPlan>(std::move(compiled));
    ExecutionProfile* profile = agg.Profile(
        0, PlanKey{sig, 0, /*planner_fingerprint=*/i}, shared);
    // Columnar replay: per-node counters land under the same CompiledPlan
    // node indices as a per-tuple profiled ExecutePlan loop would record.
    std::vector<RowId> rows(test.num_rows());
    for (RowId r = 0; r < test.num_rows(); ++r) rows[r] = r;
    ColumnarBatchExecutor exec(*shared, test, cm);
    BatchExecOptions batch_options;
    batch_options.profile = profile;
    exec.Execute(rows, /*verdicts=*/nullptr, batch_options);
  }

  obs::CalibrationReport report = agg.Snapshot();
  std::printf("\ncalibration (replay over %zu test rows):\n", test.num_rows());
  for (const obs::PlanCalibration& pc : report.plans) {
    const char* label = "?";
    if (pc.key.planner_fingerprint < plans.size()) {
      label = plans[pc.key.planner_fingerprint].first;
    }
    std::printf("%-12s predicted %.2f/exec, realized %.2f/exec, "
                "regret %+.2f\n",
                label, pc.predicted_cost, pc.realized_mean_cost(), pc.regret());
  }
  std::vector<obs::AttrCalibration> ranked = report.attrs;
  std::sort(ranked.begin(), ranked.end(),
            [](const obs::AttrCalibration& a, const obs::AttrCalibration& b) {
              return a.drift() > b.drift();
            });
  std::printf("%-12s", "top drift:");
  const size_t top = std::min<size_t>(3, ranked.size());
  for (size_t i = 0; i < top; ++i) {
    const obs::AttrCalibration& a = ranked[i];
    std::printf("%s %s %.3f (pass %.2f obs vs %.2f pred)", i > 0 ? "," : "",
                schema.name(a.attr).c_str(), a.drift(), a.observed_pass_rate(),
                a.predicted_pass_rate());
  }
  std::printf("\n");
  return report;
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
    if (arg == "--network") {
      cfg.network = next();
    } else if (arg == "--motes") {
      cfg.motes = static_cast<size_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--epochs") {
      cfg.epochs = static_cast<size_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--max-splits") {
      cfg.max_splits =
          static_cast<size_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--drop-prob") {
      cfg.drop_prob = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--limit") {
      cfg.limit = static_cast<size_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--fault-profile") {
      const Result<FaultSpec> spec = FaultSpec::Parse(next());
      if (!spec.ok()) Die("bad --fault-profile: " + spec.status().message());
      cfg.fault = *spec;
    } else if (arg == "--policy") {
      const std::string p = next();
      if (p == "unknown") {
        cfg.policy = DegradationPolicy::UnknownVerdict();
      } else if (p == "retry") {
        cfg.policy = DegradationPolicy::Retry(cfg.policy.max_attempts);
      } else if (p == "abort") {
        cfg.policy = DegradationPolicy::Abort();
      } else {
        Die("unknown --policy " + p + " (want unknown|retry|abort)");
      }
    } else if (arg == "--max-retries") {
      const int n = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
      if (n < 1) Die("--max-retries must be >= 1");
      cfg.policy.max_attempts = n;
    } else if (arg == "--metrics-out") {
      cfg.metrics_out = next();
    } else if (arg == "--calibration-out") {
      cfg.calibration_out = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: see header comment of tools/caqp_simulate.cc\n");
      return 0;
    } else {
      Die("unknown flag " + arg);
    }
  }

  auto [data, query] = MakeScenario(cfg);
  const Schema& schema = data.schema();
  const auto [train, test] = data.SplitFraction(0.6);
  std::printf("network=%s attrs=%zu train=%zu test=%zu\n", cfg.network.c_str(),
              schema.num_attributes(), train.num_rows(), test.num_rows());
  std::printf("query: %s\n\n", query.ToString(schema).c_str());

  DatasetEstimator estimator(train);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver greedyseq;

  NaivePlanner naive(estimator, cost_model);
  const CompiledPlan p_naive =
      CompiledPlan::Compile(naive.BuildPlan(query));

  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &greedyseq;
  gopts.max_splits = cfg.max_splits;
  GreedyPlanner heuristic(estimator, cost_model, gopts);
  const CompiledPlan p_heur =
      CompiledPlan::Compile(heuristic.BuildPlan(query));

  const double e_naive =
      RunOnce("naive", p_naive, schema, cost_model, test, cfg);
  const double e_heur =
      RunOnce("heuristic", p_heur, schema, cost_model, test, cfg);
  if (e_heur > 0 && e_naive > 0) {
    std::printf("\nenergy ratio naive/heuristic: %.2fx\n", e_naive / e_heur);
  }

  const obs::CalibrationReport cal = CalibrateLocally(
      {{"naive", &p_naive}, {"heuristic", &p_heur}}, query, schema, cost_model,
      estimator, test);
  if (!cfg.calibration_out.empty() &&
      obs::WriteFileOrComplain(cfg.calibration_out,
                               obs::CalibrationReportToJson(cal, &schema))) {
    std::printf("[wrote %s]\n", cfg.calibration_out.c_str());
  }

  if (!cfg.metrics_out.empty()) {
    const obs::MetricsRegistry& reg = obs::DefaultRegistry();
    if (obs::WriteFileOrComplain(cfg.metrics_out, obs::RegistryToJson(reg))) {
      std::printf("[wrote %s]\n", cfg.metrics_out.c_str());
    }
    std::printf("\n%s", obs::RegistryToMarkdown(reg).c_str());
  }
  return 0;
}
