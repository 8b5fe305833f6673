// Existential queries (Section 7): "is there ANY mote recording high light
// AND high temperature?" expressed as a DNF over per-mote conjuncts. The
// exhaustive planner handles DNF natively through three-valued range
// evaluation; its conditional plan checks the cheapest, most-likely-to-
// succeed disjunct first and stops as soon as one mote matches.

#include <cstdio>

#include "common/rng.h"
#include "opt/exhaustive.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

int main() {
  // Binary "high/low" sensor bands keep the exhaustive DP small: with 7
  // attributes the subproblem space is a few thousand states.
  Schema schema;
  const AttrId hour = schema.AddAttribute("hour_band", 4, 1.0);
  std::vector<AttrId> light, temp;
  for (int m = 0; m < 3; ++m) {
    light.push_back(schema.AddAttribute("light_" + std::to_string(m), 2,
                                        /*cost=*/80.0));
    temp.push_back(schema.AddAttribute("temp_" + std::to_string(m), 2,
                                       /*cost=*/80.0));
  }

  // History: afternoons are bright and hot everywhere; mote 2 sits in a
  // greenhouse and trips the condition more often.
  Rng rng(17);
  Dataset history(schema);
  for (int i = 0; i < 20000; ++i) {
    Tuple t(schema.num_attributes());
    const auto h = static_cast<Value>(rng.UniformInt(0, 3));
    t[hour] = h;
    for (int m = 0; m < 3; ++m) {
      const double sun = (h == 2 || h == 3) ? 0.7 : 0.1;
      const double boost = (m == 2) ? 0.2 : 0.0;
      t[light[m]] = static_cast<Value>(rng.Bernoulli(sun + boost));
      t[temp[m]] = static_cast<Value>(rng.Bernoulli(sun + boost));
    }
    history.Append(t);
  }
  const auto [train, test] = history.SplitFraction(0.7);

  // EXISTS mote: light high AND temp high.
  std::vector<Conjunct> disjuncts;
  for (int m = 0; m < 3; ++m) {
    disjuncts.push_back(
        {Predicate(light[m], 1, 1), Predicate(temp[m], 1, 1)});
  }
  const Query query = Query::Disjunction(disjuncts);
  std::printf("EXISTS query: %s\n\n", query.ToString(schema).c_str());

  DatasetEstimator estimator(train);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits = SplitPointSet::EquiSpaced(
      schema, std::vector<uint32_t>(schema.num_attributes(), 3));
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(estimator, cost_model, opts);
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(query));

  std::printf("Conditional plan (%s):\n%s\n", PlanSummary(plan).c_str(),
              PrintPlan(plan, schema).c_str());

  // Baseline: acquire every referenced attribute until resolution, in
  // schema order, with no conditioning.
  const CompiledPlan baseline = CompiledPlan::Compile(
      *PlanNode::Generic(query, query.ReferencedAttributes()));

  const auto r_plan = EmpiricalPlanCost(plan, test, query, cost_model);
  const auto r_base = EmpiricalPlanCost(baseline, test, query, cost_model);
  std::printf("mean cost: conditional=%.1f baseline=%.1f (%.2fx cheaper)\n",
              r_plan.mean_cost, r_base.mean_cost,
              r_base.mean_cost / r_plan.mean_cost);
  std::printf("verdict errors: conditional=%zu baseline=%zu\n",
              r_plan.verdict_errors, r_base.verdict_errors);
  return 0;
}
