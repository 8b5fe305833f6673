// Compile-and-run check for the umbrella header: the README quickstart
// flow, written exactly as a downstream user would.

#include "caqp.h"

#include <gtest/gtest.h>

namespace caqp {
namespace {

TEST(UmbrellaTest, QuickstartFlowWorks) {
  Schema schema;
  schema.AddAttribute("clock", 2, 0.0);
  schema.AddAttribute("sensor_a", 2, 10.0);
  schema.AddAttribute("sensor_b", 2, 10.0);

  Rng rng(1);
  Dataset history(schema);
  for (int i = 0; i < 2000; ++i) {
    const bool day = rng.Bernoulli(0.5);
    history.Append({static_cast<Value>(day),
                    static_cast<Value>(rng.Bernoulli(day ? 0.9 : 0.1)),
                    static_cast<Value>(rng.Bernoulli(day ? 0.1 : 0.9))});
  }

  DatasetEstimator estimator(history);
  PerAttributeCostModel costs(schema);
  const Query query =
      Query::Conjunction({Predicate(1, 1, 1), Predicate(2, 1, 1)});

  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver base;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &base;
  opts.max_splits = 3;
  GreedyPlanner planner(estimator, costs, opts);
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(query));

  EXPECT_TRUE(PlanIsWellFormed(plan, schema));
  EXPECT_TRUE(VerifyPlanExhaustive(plan, query, schema).correct);
  EXPECT_GT(plan.NumSplits(), 0u);  // the clock split pays for itself

  const double cost = ExpectedPlanCost(plan, estimator, costs);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 20.0);  // never needs both sensors in expectation

  // Serialize -> radio -> deserialize -> execute.
  const auto bytes = SerializePlan(plan);
  auto back = DeserializeCompiledPlan(bytes, schema);
  ASSERT_TRUE(back.ok());
  Tuple tonight = {0, 0, 1};
  TupleSource src(tonight);
  const ExecutionResult res = ExecutePlan(*back, schema, costs, src);
  EXPECT_FALSE(res.verdict);
  EXPECT_GT(res.cost, 0.0);
}

}  // namespace
}  // namespace caqp
