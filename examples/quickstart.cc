// Quickstart: the smallest end-to-end use of CAQP.
//
// 1. Build (or load) a discretized historical dataset.
// 2. Wrap it in a DatasetEstimator.
// 3. Ask a planner for a plan for your query, and compile it once: every
//    API after planning (printing, costing, execution, serialization)
//    takes the compiled flat form.
// 4. Execute the plan over new tuples, paying acquisition costs lazily.
// 5. Optionally observe the run: planner stats and an execution trace.
//
// The data here is the paper's Figure 2 situation: two expensive sensors
// whose selectivities flip between night and day, plus a free clock. The
// conditional plan reads the clock and orders the expensive predicates
// differently per branch, cutting expected cost from 1.5 to ~1.1 units.

#include <cstdio>

#include "common/rng.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "opt/greedy_plan.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

int main() {
  // --- 1. A schema and some history -------------------------------------
  Schema schema;
  schema.AddAttribute("is_day", 2, /*cost=*/0.0);
  const AttrId temp = schema.AddAttribute("temp_hot", 2, /*cost=*/1.0);
  const AttrId light = schema.AddAttribute("light_low", 2, /*cost=*/1.0);

  Rng rng(7);
  Dataset history(schema);
  for (int i = 0; i < 20000; ++i) {
    const bool day = rng.Bernoulli(0.5);
    // In Berkeley in summer (per the paper): hot mostly by day, dark mostly
    // by night.
    const bool hot = rng.Bernoulli(day ? 0.9 : 0.1);
    const bool dark = rng.Bernoulli(day ? 0.1 : 0.9);
    history.Append({static_cast<Value>(day), static_cast<Value>(hot),
                    static_cast<Value>(dark)});
  }

  // --- 2. Estimator, cost model, query ----------------------------------
  DatasetEstimator estimator(history);
  PerAttributeCostModel cost_model(schema);
  const Query query = Query::Conjunction(
      {Predicate(temp, 1, 1), Predicate(light, 1, 1)});  // hot AND dark

  // --- 3. Plans: traditional vs conditional ------------------------------
  // Planners build Plan trees; compile each one for everything downstream.
  NaivePlanner naive(estimator, cost_model);
  const CompiledPlan naive_plan =
      CompiledPlan::Compile(naive.BuildPlan(query));

  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &optseq;
  opts.max_splits = 3;
  GreedyPlanner greedy(estimator, cost_model, opts);
  const CompiledPlan cond_plan =
      CompiledPlan::Compile(greedy.BuildPlan(query));

  std::printf("Query: %s\n\n", query.ToString(schema).c_str());
  std::printf("Naive sequential plan:\n%s\n",
              PrintPlan(naive_plan, schema).c_str());
  std::printf("Conditional plan (%s):\n%s\n",
              PlanSummary(cond_plan).c_str(),
              PrintPlan(cond_plan, schema).c_str());

  // --- 4. Costs ----------------------------------------------------------
  const double c_naive = ExpectedPlanCost(naive_plan, estimator, cost_model);
  const double c_cond = ExpectedPlanCost(cond_plan, estimator, cost_model);
  std::printf("expected cost: naive=%.3f conditional=%.3f (%.1f%% saved)\n",
              c_naive, c_cond, 100.0 * (1.0 - c_cond / c_naive));

  // Execute over a fresh tuple; the compiled plan is reused for every tuple.
  Tuple tonight = {0, 0, 1};  // night, not hot, dark
  TupleSource source(tonight);
  const ExecutionResult res =
      ExecutePlan(cond_plan, schema, cost_model, source);
  std::printf("tonight's tuple: verdict=%s, paid %.1f cost units, %d reads\n",
              res.verdict ? "PASS" : "FAIL", res.cost, res.acquisitions);

  // --- 5. Observability ---------------------------------------------------
  // Planner stats were collected during BuildPlan above.
  const obs::PlannerStats& stats = greedy.planner_stats();
  std::printf("\nplanner: %zu split searches, %zu splits taken, "
              "%zu leaf solves\n",
              stats.split_searches, stats.splits_taken, stats.seq_solves);

  // An ExecutionTrace records the acquisition order and branch path of a
  // single tuple (tools/caqp_plan --trace-out streams these as JSONL).
  ExecutionTrace trace;
  TupleSource traced_source(tonight);
  (void)ExecutePlan(cond_plan, schema, cost_model, traced_source, &trace);
  std::printf("trace:");
  for (const TraceAcquisition& a : trace.acquisitions()) {
    std::printf(" %s=%u(+%.1f)", schema.name(a.attr).c_str(), a.value,
                a.cost);
  }
  std::printf(" -> %s\n", trace.verdict() ? "PASS" : "FAIL");
  return 0;
}
