// Robust-planning bar: minmax-regret plans vs point-estimate plans over
// uncertainty boxes (opt/uncertainty.h, opt/regret.h).
//
// A 3-attribute conjunctive workload (equal acquisition costs, pass rates
// 0.1 / 0.5 / 0.9) is planned by the Exhaustive point planner, the Greedy
// point planner, and the RegretPlanner, then every plan is priced at the
// corner scenarios of four uncertainty boxes:
//
//   point        the degenerate box — regret must reproduce the Exhaustive
//                plan bit-identically (serialized bytes compared)
//   uniform      symmetric +-0.15 pass-probability shift on every attribute
//   drift        a directional calibration-style box: the selective
//                attribute may have drifted non-selective and vice versa
//                (what DriftPolicy's widen mode installs after a regime
//                shift)
//   fault        the cheap-to-love attribute may develop up to a 90%
//                transient failure rate (PR 3 fault profiles: cost
//                multiplier 1/(1-f) up to 10x)
//
// Per (box, planner): worst-case and mean regret over the box's corners,
// where regret at a scenario is the plan's cost minus the best cost any
// reference candidate (RegretCandidatePlans + the point plans) achieves
// there.
//
// Hard bars (exit nonzero on failure):
//   1. On every box, the regret plan's worst-case regret is <= the
//      Exhaustive point plan's.
//   2. On at least one box it is <= 0.5x — hedging must actually buy
//      something, not just tie.
//   3. On the degenerate box the regret plan IS the point plan (same
//      serialized bytes) with zero worst-case regret.
//
// results/bench_regret.csv gets one row per (box, planner); --json-out
// writes the metrics registry (bench_util.h).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "obs/registry.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/regret.h"
#include "opt/split_points.h"
#include "opt/uncertainty.h"
#include "plan/plan_cost.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"

using namespace caqp;
using opt::CornerScenarios;
using opt::RegretPlanner;
using opt::UncertaintyBox;

namespace {

constexpr uint64_t kSeed = 20050405;
constexpr size_t kRows = 4000;
constexpr double kAttrCost = 5.0;

/// Equal-cost 3-attribute schema; plan choice is pure selectivity ordering.
Schema BenchSchema() {
  Schema s;
  s.AddAttribute("a0", 10, kAttrCost);
  s.AddAttribute("a1", 10, kAttrCost);
  s.AddAttribute("a2", 10, kAttrCost);
  return s;
}

/// Independent draws at pass rates 0.1 / 0.5 / 0.9 for the [0,0] predicates.
Dataset BenchData(const Schema& schema) {
  const double pass_rate[3] = {0.1, 0.5, 0.9};
  Rng rng(kSeed);
  Dataset ds(schema);
  for (size_t i = 0; i < kRows; ++i) {
    Tuple t(3);
    for (size_t a = 0; a < 3; ++a) {
      t[a] = rng.Bernoulli(pass_rate[a]) ? 0 : 5;
    }
    ds.Append(t);
  }
  return ds;
}

Query BenchQuery() {
  return Query::Conjunction(
      {Predicate(0, 0, 0), Predicate(1, 0, 0), Predicate(2, 0, 0)});
}

struct BoxCase {
  std::string name;
  UncertaintyBox box;
};

std::vector<BoxCase> BenchBoxes() {
  std::vector<BoxCase> boxes;
  boxes.push_back({"point", UncertaintyBox()});
  boxes.push_back({"uniform", UncertaintyBox::Uniform(0.15)});
  // Directional regime-shift box: a0 (selective, evaluated first by every
  // point planner) may have drifted up to +0.85 less selective; a2 may
  // have become the selective one. Exactly the shape FromCalibration
  // produces after an a0-up/a2-down drift window.
  UncertaintyBox drift;
  drift.shift_hi[0] = 0.85;
  drift.shift_lo[2] = -0.85;
  boxes.push_back({"drift", drift});
  // Fault box: a0 may develop up to a 90% transient rate (10x retry cost).
  UncertaintyBox fault;
  fault.fault_hi[0] = 0.9;
  boxes.push_back({"fault", fault});
  return boxes;
}

struct PlanScore {
  std::string planner;
  double nominal_cost = 0.0;
  double worst_regret = 0.0;
  double mean_regret = 0.0;
};

/// Regret of `plan` per scenario against precomputed best costs.
PlanScore Score(const std::string& name, const CompiledPlan& plan,
                CondProbEstimator& est, const AcquisitionCostModel& cm,
                const std::vector<CostScenario>& scenarios,
                const std::vector<double>& best) {
  PlanScore out;
  out.planner = name;
  out.nominal_cost = ExpectedPlanCost(plan, est, cm, scenarios[0]);
  for (size_t s = 0; s < scenarios.size(); ++s) {
    const double regret =
        ExpectedPlanCost(plan, est, cm, scenarios[s]) - best[s];
    out.worst_regret = std::max(out.worst_regret, regret);
    out.mean_regret += regret;
  }
  out.mean_regret /= static_cast<double>(scenarios.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench("bench_regret", argc, argv);

  const Schema schema = BenchSchema();
  const Dataset data = BenchData(schema);
  const Query query = BenchQuery();
  DatasetEstimator estimator(data);
  const PerAttributeCostModel cost_model(schema);

  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options eopts;
  eopts.split_points = &splits;
  const ExhaustivePlanner exhaustive(estimator, cost_model, eopts);

  GreedySeqSolver greedyseq;
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &greedyseq;
  const GreedyPlanner greedy(estimator, cost_model, gopts);

  const Plan exhaustive_plan = exhaustive.BuildPlan(query);
  const Plan greedy_plan = greedy.BuildPlan(query);
  const CompiledPlan exhaustive_c = CompiledPlan::Compile(exhaustive_plan);
  const CompiledPlan greedy_c = CompiledPlan::Compile(greedy_plan);

  bench::Banner("minmax-regret vs point plans over uncertainty boxes");
  std::printf("%-8s %-11s %9s %12s %11s\n", "box", "planner", "nominal",
              "worst_regret", "mean_regret");

  std::vector<std::string> csv_rows;
  bool bar_dominates = true;     // bar 1: regret <= exhaustive on every box
  bool bar_halves = false;       // bar 2: regret <= 0.5x on some box
  bool bar_identity = false;     // bar 3: point box reproduces point plan
  for (const BoxCase& bc : BenchBoxes()) {
    const std::vector<CostScenario> scenarios = CornerScenarios(bc.box);

    RegretPlanner::Options ropts;
    ropts.point_planner = &exhaustive;
    ropts.box = bc.box;
    const RegretPlanner regret_planner(estimator, cost_model, ropts);
    const Plan regret_plan = regret_planner.BuildPlan(query);
    const CompiledPlan regret_c = CompiledPlan::Compile(regret_plan);

    if (bc.name == "point") {
      bar_identity = SerializePlan(regret_c) == SerializePlan(exhaustive_c) &&
                     regret_planner.LastWorstCaseRegret() == 0.0;
    }

    // Reference best-cost per scenario: the regret planner's own candidate
    // set plus the point plans being scored against it.
    const std::vector<Plan> candidates = opt::RegretCandidatePlans(
        query, estimator, cost_model, scenarios, &exhaustive_plan);
    std::vector<const CompiledPlan*> reference;
    std::vector<CompiledPlan> compiled;
    compiled.reserve(candidates.size());
    for (const Plan& p : candidates) {
      compiled.push_back(CompiledPlan::Compile(p));
    }
    for (const CompiledPlan& c : compiled) reference.push_back(&c);
    reference.push_back(&greedy_c);
    reference.push_back(&regret_c);

    std::vector<double> best(scenarios.size(), 0.0);
    for (size_t s = 0; s < scenarios.size(); ++s) {
      double lo = ExpectedPlanCost(*reference[0], estimator, cost_model,
                                   scenarios[s]);
      for (size_t c = 1; c < reference.size(); ++c) {
        lo = std::min(lo, ExpectedPlanCost(*reference[c], estimator,
                                           cost_model, scenarios[s]));
      }
      best[s] = lo;
    }

    const std::vector<PlanScore> scores = {
        Score("exhaustive", exhaustive_c, estimator, cost_model, scenarios,
              best),
        Score("greedy", greedy_c, estimator, cost_model, scenarios, best),
        Score("regret", regret_c, estimator, cost_model, scenarios, best),
    };
    const PlanScore& ex = scores[0];
    const PlanScore& rg = scores[2];
    if (rg.worst_regret > ex.worst_regret + 1e-9) bar_dominates = false;
    if (ex.worst_regret > 1e-9 && rg.worst_regret <= 0.5 * ex.worst_regret) {
      bar_halves = true;
    }

    for (const PlanScore& sc : scores) {
      std::printf("%-8s %-11s %9.3f %12.3f %11.3f\n", bc.name.c_str(),
                  sc.planner.c_str(), sc.nominal_cost, sc.worst_regret,
                  sc.mean_regret);
      char row[192];
      std::snprintf(row, sizeof(row), "%s,%s,%.4f,%.4f,%.4f",
                    bc.name.c_str(), sc.planner.c_str(), sc.nominal_cost,
                    sc.worst_regret, sc.mean_regret);
      csv_rows.emplace_back(row);
      // Dynamic metric names: bypass the per-call-site macro cache.
      obs::DefaultRegistry()
          .GetGauge("bench_regret." + bc.name + "." + sc.planner +
                    ".worst_regret")
          .Set(sc.worst_regret);
    }
    obs::DefaultRegistry()
        .GetGauge("bench_regret." + bc.name + ".scenarios")
        .Set(static_cast<double>(scenarios.size()));
  }
  bench::WriteCsv("bench_regret",
                  "box,planner,nominal_cost,worst_regret,mean_regret",
                  csv_rows);

  obs::DefaultRegistry().GetGauge("bench_regret.bar_dominates")
      .Set(bar_dominates ? 1.0 : 0.0);
  obs::DefaultRegistry().GetGauge("bench_regret.bar_halves")
      .Set(bar_halves ? 1.0 : 0.0);
  obs::DefaultRegistry().GetGauge("bench_regret.bar_point_identity")
      .Set(bar_identity ? 1.0 : 0.0);

  const bool pass = bar_dominates && bar_halves && bar_identity;
  std::printf("\nbars: regret<=exhaustive on every box %s | <=0.5x on some "
              "box %s | point-box bit-identity %s => %s\n",
              bar_dominates ? "PASS" : "FAIL", bar_halves ? "PASS" : "FAIL",
              bar_identity ? "PASS" : "FAIL", pass ? "PASS" : "FAIL");
  bench::FinishBench();
  return pass ? 0 : 1;
}
