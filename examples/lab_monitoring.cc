// Lab monitoring: the paper's Figure 9 case study. We generate a lab-like
// trace, ask for tuples that are "bright, cool and dry" (someone working in
// the lab at night), and print the conditional plan the greedy planner
// builds -- it conditions on hour and node id before paying for the
// expensive light/temperature/humidity sensors -- plus train/test costs for
// Naive, CorrSeq and Heuristic.

#include <cstdio>

#include "data/lab_gen.h"
#include "opt/greedy_plan.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

int main() {
  LabDataOptions lab;
  lab.readings = 60000;
  lab.num_motes = 10;
  const Dataset all = GenerateLabData(lab);
  const auto [train, test] = all.SplitFraction(0.6);
  const LabAttrs attrs = ResolveLabAttrs(all.schema());
  const Schema& schema = all.schema();

  // Bright (upper light bins), cool (lower temperature bins), dry (lower
  // humidity bins).
  const Query query = Query::Conjunction({
      Predicate(attrs.light, 5, 15),
      Predicate(attrs.temperature, 0, 7),
      Predicate(attrs.humidity, 0, 7),
  });
  std::printf("Query: %s\n\n", query.ToString(schema).c_str());

  DatasetEstimator estimator(train);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;

  NaivePlanner naive(estimator, cost_model);
  SequentialPlanner corrseq(estimator, cost_model, optseq, "CorrSeq");
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &optseq;
  gopts.max_splits = 5;
  GreedyPlanner heuristic(estimator, cost_model, gopts);

  const CompiledPlan p_naive = CompiledPlan::Compile(naive.BuildPlan(query));
  const CompiledPlan p_corr = CompiledPlan::Compile(corrseq.BuildPlan(query));
  const CompiledPlan p_heur =
      CompiledPlan::Compile(heuristic.BuildPlan(query));

  std::printf("Heuristic-5 conditional plan (%s):\n%s\n",
              PlanSummary(p_heur).c_str(), PrintPlan(p_heur, schema).c_str());

  std::printf("%-12s %14s %14s %10s\n", "planner", "train cost", "test cost",
              "errors");
  for (const auto& [name, plan] :
       {std::pair<const char*, const CompiledPlan*>{"Naive", &p_naive},
        {"CorrSeq", &p_corr},
        {"Heuristic-5", &p_heur}}) {
    const auto tr = EmpiricalPlanCost(*plan, train, query, cost_model);
    const auto te = EmpiricalPlanCost(*plan, test, query, cost_model);
    std::printf("%-12s %14.2f %14.2f %10zu\n", name, tr.mean_cost,
                te.mean_cost, te.verdict_errors);
  }
  return 0;
}
