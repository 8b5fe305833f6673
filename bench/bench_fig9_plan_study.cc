// Figure 9: detailed plan study. The paper's example query asks for tuples
// that are bright, cool and dry ("someone working in the lab at night") and
// shows the conditional plan: it conditions on the hour first, brings in a
// nodeid split separating the night-active part of the lab, and samples
// humidity first late at night. We print our planner's tree for the same
// query and report its gain over Naive (paper: ~20%).

#include <cstdio>

#include "bench_util.h"
#include "lab_config.h"
#include "opt/greedy_plan.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;
using namespace caqp::bench;

int main(int argc, char** argv) {
  InitBench("fig9_plan_study", argc, argv);
  Banner("Figure 9: plan case study (bright, cool, dry)");

  LabSetup lab = MakeFullLab();
  const Schema& schema = lab.train.schema();
  DatasetEstimator est(lab.train);
  PerAttributeCostModel cm(schema);

  // Bright (lamp-level light), cool, dry.
  const Query query = Query::Conjunction({
      Predicate(lab.attrs.light, 5, 15),
      Predicate(lab.attrs.temperature, 0, 7),
      Predicate(lab.attrs.humidity, 0, 7),
  });
  std::printf("query: %s\n\n", query.ToString(schema).c_str());

  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &optseq;
  gopts.max_splits = 8;
  GreedyPlanner heuristic(est, cm, gopts);
  NaivePlanner naive(est, cm);

  const CompiledPlan plan = CompiledPlan::Compile(heuristic.BuildPlan(query));
  const CompiledPlan p_naive = CompiledPlan::Compile(naive.BuildPlan(query));
  std::printf("conditional plan (%s):\n%s\n", PlanSummary(plan).c_str(),
              PrintPlan(plan, schema).c_str());

  const auto r_cond = EmpiricalPlanCost(plan, lab.test, query, cm);
  const auto r_naive = EmpiricalPlanCost(p_naive, lab.test, query, cm);
  std::printf("test cost: conditional=%.2f naive=%.2f -> %.1f%% gain "
              "(paper: ~20%%)\n",
              r_cond.mean_cost, r_naive.mean_cost,
              100.0 * (1.0 - r_cond.mean_cost / r_naive.mean_cost));
  std::printf("verdict errors: %zu\n", r_cond.verdict_errors);

  WriteCsv("fig9_plan_study", "plan,test_cost",
           {"conditional," + std::to_string(r_cond.mean_cost),
            "naive," + std::to_string(r_naive.mean_cost)});
  FinishBench();
  return 0;
}
