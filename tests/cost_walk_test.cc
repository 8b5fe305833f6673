// The one Eq. 3 walk (plan/plan_cost.h). The point cost, the zero scenario
// and EstimatePlan's expected_cost are one number, bit for bit, for plans
// from every planner on garden, lab and synthetic data under per-attribute
// and sensor-board costs; and a scenario reaches a generic leaf only through
// its fault multipliers.

#include <gtest/gtest.h>

#include <vector>

#include "data/garden_gen.h"
#include "data/lab_gen.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "opt/cost_model.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/regret.h"
#include "opt/split_points.h"
#include "opt/uncertainty.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"
#include "plan/plan_estimates.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

/// Attributes (1, 2), (3, 4), ... share a sensor board with a power-up
/// charge of 25; attribute 0 has no board.
SensorBoardCostModel PairedBoards(const Schema& schema) {
  const size_t n = schema.num_attributes();
  std::vector<int> board_of(n, -1);
  for (size_t a = 1; a < n; ++a) board_of[a] = static_cast<int>((a - 1) / 2);
  return SensorBoardCostModel(schema, std::move(board_of),
                              std::vector<double>(n / 2 + 1, 25.0));
}

/// The three entry points of the walk must return one number for `plan`.
void ExpectOneWalk(const Plan& plan, CondProbEstimator& est,
                   const AcquisitionCostModel& cm) {
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  const double point = ExpectedPlanCost(compiled, est, cm);
  EXPECT_EQ(ExpectedPlanCost(compiled, est, cm, CostScenario{}), point);
  EXPECT_EQ(EstimatePlan(compiled, est, cm).expected_cost, point);
}

/// Plans every query with Greedy, Exhaustive and Naive, and checks those
/// plans plus the regret candidates around the Greedy plan, under both cost
/// models.
void ExpectOneWalkAcrossPlanners(const Dataset& train,
                                 const std::vector<Query>& queries,
                                 const SplitPointSet& splits,
                                 const SplitPointSet& exhaustive_splits) {
  const Schema& schema = train.schema();
  DatasetEstimator est(train);
  const PerAttributeCostModel per_attribute(schema);
  const SensorBoardCostModel boards = PairedBoards(schema);
  const std::vector<CostScenario> scenarios =
      opt::CornerScenarios(opt::UncertaintyBox::Uniform(0.1));
  GreedySeqSolver greedyseq;
  for (const AcquisitionCostModel* cm :
       {static_cast<const AcquisitionCostModel*>(&per_attribute),
        static_cast<const AcquisitionCostModel*>(&boards)}) {
    GreedyPlanner::Options g;
    g.split_points = &splits;
    g.seq_solver = &greedyseq;
    g.max_splits = 5;
    const GreedyPlanner greedy(est, *cm, g);
    ExhaustivePlanner::Options e;
    e.split_points = &exhaustive_splits;
    const ExhaustivePlanner exhaustive(est, *cm, e);
    const NaivePlanner naive(est, *cm);
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(q);
      ExpectOneWalk(exhaustive.BuildPlan(queries[q]), est, *cm);
      ExpectOneWalk(naive.BuildPlan(queries[q]), est, *cm);
      // Candidate 0 is the Greedy plan itself.
      const Plan point = greedy.BuildPlan(queries[q]);
      for (const Plan& candidate : opt::RegretCandidatePlans(
               queries[q], est, *cm, scenarios, &point)) {
        ExpectOneWalk(candidate, est, *cm);
      }
    }
  }
}

/// Two equi-spaced split points per attribute.
SplitPointSet TwoPointsEach(const Schema& schema) {
  return SplitPointSet::EquiSpaced(
      schema, std::vector<uint32_t>(schema.num_attributes(), 2));
}

TEST(PlanCostWalkTest, BenchExecGardenGreedyPlans) {
  // bench_exec's workload: 5 garden motes, 12 queries, Greedy with
  // GreedySeq leaves and at most 5 splits over log10-spaced split points.
  GardenDataOptions gopts;
  gopts.num_motes = 5;
  gopts.epochs = 20000;
  const Dataset all = GenerateGardenData(gopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);
  GardenQueryOptions qopts;
  qopts.num_queries = 12;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(train);
  const PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver greedyseq;
  GreedyPlanner::Options g;
  g.split_points = &splits;
  g.seq_solver = &greedyseq;
  g.max_splits = 5;
  const GreedyPlanner greedy(est, cm, g);
  for (size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(q);
    ExpectOneWalk(greedy.BuildPlan(queries[q]), est, cm);
  }
}

TEST(PlanCostWalkTest, GardenPlansAcrossPlanners) {
  GardenDataOptions gopts;
  gopts.num_motes = 2;
  gopts.epochs = 1500;
  const Dataset all = GenerateGardenData(gopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);
  GardenQueryOptions qopts;
  qopts.num_queries = 4;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);
  ExpectOneWalkAcrossPlanners(
      train, queries,
      SplitPointSet::FromLog10Spsf(
          schema, static_cast<double>(schema.num_attributes())),
      TwoPointsEach(schema));
}

TEST(PlanCostWalkTest, LabPlansAcrossPlanners) {
  LabDataOptions lopts;
  lopts.num_motes = 4;
  lopts.readings = 2000;
  const Dataset all = GenerateLabData(lopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  const LabAttrs attrs = ResolveLabAttrs(schema);
  LabQueryOptions qopts;
  qopts.num_queries = 4;
  const std::vector<Query> queries = GenerateLabQueries(
      train, {attrs.light, attrs.temperature, attrs.humidity}, qopts);
  ExpectOneWalkAcrossPlanners(
      train, queries,
      SplitPointSet::FromLog10Spsf(
          schema, static_cast<double>(schema.num_attributes())),
      TwoPointsEach(schema));
}

TEST(PlanCostWalkTest, SyntheticPlansAcrossPlanners) {
  SyntheticDataOptions sopts;
  sopts.n = 6;
  sopts.gamma = 2;
  sopts.tuples = 2000;
  const Dataset all = GenerateSyntheticData(sopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  std::vector<Query> queries = {SyntheticAllExpensiveQuery(schema)};
  Rng rng(1907);
  for (int i = 0; i < 3; ++i) {
    queries.push_back(testing_util::RandomConjunctiveQuery(schema, rng, 4));
  }
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExpectOneWalkAcrossPlanners(train, queries, splits, splits);
}

TEST(PlanCostWalkTest, GenericLeavesAndDnfQueries) {
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 2000, 23);
  DatasetEstimator est(data);
  const PerAttributeCostModel per_attribute(schema);
  const SensorBoardCostModel boards = PairedBoards(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  const Query dnf =
      Query::Disjunction({{Predicate(0, 3, 3)}, {Predicate(3, 4, 4)}});
  for (const AcquisitionCostModel* cm :
       {static_cast<const AcquisitionCostModel*>(&per_attribute),
        static_cast<const AcquisitionCostModel*>(&boards)}) {
    // A disjunction leaf below a split, reusing the split-path value.
    ExpectOneWalk(Plan(PlanNode::Split(0, 2, PlanNode::Verdict(false),
                                       PlanNode::Generic(dnf, {0, 3}))),
                  est, *cm);
    ExhaustivePlanner::Options e;
    e.split_points = &splits;
    const ExhaustivePlanner exhaustive(est, *cm, e);
    ExpectOneWalk(exhaustive.BuildPlan(dnf), est, *cm);
    ExpectOneWalk(
        exhaustive.BuildPlan(Query::Disjunction(
            {{Predicate(1, 0, 2), Predicate(2, 2, 3)}, {Predicate(3, 0, 1)}})),
        est, *cm);
  }
}

TEST(PlanCostWalkTest, ScenarioReachesGenericLeavesOnlyThroughFaults) {
  // (a=1) OR (b=1), acquiring a then b: cost = 5 + P(a=0) * 50 = 30.
  Schema schema;
  schema.AddAttribute("a", 2, 5.0);
  schema.AddAttribute("b", 2, 50.0);
  Dataset ds(schema);
  ds.Append({1, 0});
  ds.Append({1, 1});
  ds.Append({0, 1});
  ds.Append({0, 0});
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const Query q =
      Query::Disjunction({{Predicate(0, 1, 1)}, {Predicate(1, 1, 1)}});
  const CompiledPlan plan =
      CompiledPlan::Compile(Plan(PlanNode::Generic(q, {0, 1})));
  const double point = ExpectedPlanCost(plan, est, cm);
  EXPECT_NEAR(point, 30.0, 1e-9);

  // A generic leaf's evaluation order is data-dependent, so shifts leave its
  // point probabilities alone...
  CostScenario shifted;
  shifted.shift[0] = 0.4;
  shifted.shift[1] = -0.3;
  EXPECT_EQ(ExpectedPlanCost(plan, est, cm, shifted), point);
  // ...while a fault rate f still multiplies each charge by 1/(1 - f):
  // 5 * 2 + P(a=0) * 50 * 4.
  CostScenario faulty;
  faulty.fault[0] = 0.5;
  faulty.fault[1] = 0.75;
  EXPECT_NEAR(ExpectedPlanCost(plan, est, cm, faulty), 110.0, 1e-9);

  // EstimatePlan: no pass estimate, the subtree expectation as cost, and no
  // per-attribute rates.
  const PlanEstimates pe = EstimatePlan(plan, est, cm);
  ASSERT_EQ(pe.nodes.size(), 1u);
  EXPECT_EQ(pe.nodes[0].reach, 1.0);
  EXPECT_EQ(pe.nodes[0].pass, -1.0);
  EXPECT_EQ(pe.nodes[0].cost, point);
  EXPECT_EQ(pe.expected_cost, point);
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    EXPECT_EQ(pe.attr_eval_rate[a], 0.0) << "attr " << a;
    EXPECT_EQ(pe.attr_pass_rate[a], 0.0) << "attr " << a;
  }
}

}  // namespace
}  // namespace caqp
