// Figure 2 (Section 2.1 motivating example): two unit-cost predicates with
// marginal selectivity 1/2 whose conditional selectivities flip between
// night and day. The paper reports: every traditional (sequential) plan
// costs 1.5 units in expectation; the conditional plan that branches on the
// time of day costs 1.1 units.

#include <cstdio>

#include "bench_util.h"
#include "opt/exhaustive.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;
using namespace caqp::bench;

int main(int argc, char** argv) {
  InitBench("fig2_motivating", argc, argv);
  Banner("Figure 2: motivating example (expected costs 1.5 vs 1.1)");

  Schema schema;
  schema.AddAttribute("time", 2, 0.0);  // free clock
  schema.AddAttribute("temp", 2, 1.0);
  schema.AddAttribute("light", 2, 1.0);

  // Counts chosen so that P(pred) = 1/2 marginally, 1/10 in the
  // unfavourable half of the day (Section 2.1's worked numbers).
  Dataset data(schema);
  auto add = [&](Value t, Value temp, Value light, int copies) {
    for (int i = 0; i < copies; ++i) data.Append({t, temp, light});
  };
  // Night (time=0): temp passes 1/10, light passes 9/10.
  add(0, 1, 1, 9);
  add(0, 1, 0, 1);
  add(0, 0, 1, 81);
  add(0, 0, 0, 9);
  // Day (time=1): mirrored.
  add(1, 1, 1, 9);
  add(1, 0, 1, 1);
  add(1, 1, 0, 81);
  add(1, 0, 0, 9);

  const Query query =
      Query::Conjunction({Predicate(1, 1, 1), Predicate(2, 1, 1)});

  DatasetEstimator est(data);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);

  NaivePlanner naive(est, cm);
  OptSeqSolver optseq;
  SequentialPlanner corrseq(est, cm, optseq, "CorrSeq");
  ExhaustivePlanner::Options eopts;
  eopts.split_points = &splits;
  ExhaustivePlanner exhaustive(est, cm, eopts);

  const CompiledPlan p_naive = CompiledPlan::Compile(naive.BuildPlan(query));
  const CompiledPlan p_corr = CompiledPlan::Compile(corrseq.BuildPlan(query));
  const CompiledPlan p_cond =
      CompiledPlan::Compile(exhaustive.BuildPlan(query));

  std::printf("\nConditional plan found:\n%s\n",
              PrintPlan(p_cond, schema).c_str());

  std::vector<std::string> rows;
  std::printf("%-22s %14s  (paper)\n", "plan", "expected cost");
  auto report = [&](const char* name, const CompiledPlan& p,
                    const char* paper) {
    const double c = EmpiricalPlanCost(p, data, query, cm).mean_cost;
    std::printf("%-22s %14.3f  %s\n", name, c, paper);
    rows.push_back(std::string(name) + "," + std::to_string(c));
  };
  report("Naive sequential", p_naive, "1.5");
  report("CorrSeq sequential", p_corr, "1.5");
  report("Conditional (optimal)", p_cond, "1.1");
  WriteCsv("fig2_motivating", "plan,expected_cost", rows);
  FinishBench();
  return 0;
}
