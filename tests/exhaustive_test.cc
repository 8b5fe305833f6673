// ExhaustivePlanner tests: the paper's Figure 2 motivating example, DP
// consistency (reported cost == Equation (3) cost of the returned plan),
// optimality against OptSeq and GreedyPlan, verdict correctness over the
// full domain, SPSF restriction behavior, and pruning/caching stats.

#include <gtest/gtest.h>

#include "opt/exhaustive.h"
#include "opt/greedyseq.h"
#include "plan/plan_cost.h"
#include "plan/plan_verify.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

/// The paper's Figure 2 setup: temp and light predicates with marginal
/// selectivity 1/2 each, cost 1 each; a free "time" attribute such that at
/// night (time=0) the temp predicate passes with 1/10 and during day
/// (time=1) the light predicate passes with 1/10. Expected costs: any
/// sequential plan = 1.5; the conditional plan = 1.1.
struct Fig2Fixture {
  Schema schema;
  Dataset data{Schema()};
  Query query;

  Fig2Fixture() {
    schema.AddAttribute("time", 2, 0.0);  // free to observe
    schema.AddAttribute("temp", 2, 1.0);
    schema.AddAttribute("light", 2, 1.0);
    data = Dataset(schema);
    // 20 tuples, half night (time=0), half day (time=1).
    // Night: P(temp=1) = 1/10, P(light=1) = 9/10 (independent given time).
    // Day:   P(temp=1) = 9/10, P(light=1) = 1/10.
    // Overall selectivity of each predicate: 1/2.
    auto add = [&](Value time, Value temp, Value light, int copies) {
      for (int i = 0; i < copies; ++i) {
        data.Append({time, temp, light});
      }
    };
    // Night block (100 tuples scaled to counts of 100).
    add(0, 1, 1, 9);   // temp pass & light pass: 0.1*0.9 * 100 = 9
    add(0, 1, 0, 1);   // 0.1*0.1*100 = 1
    add(0, 0, 1, 81);  // 0.9*0.9
    add(0, 0, 0, 9);
    // Day block mirrored.
    add(1, 1, 1, 9);
    add(1, 0, 1, 1);
    add(1, 1, 0, 81);
    add(1, 0, 0, 9);
    query = Query::Conjunction(
        {Predicate(1, 1, 1), Predicate(2, 1, 1)});  // temp=1 AND light=1
  }
};

TEST(ExhaustiveTest, Figure2MotivatingExample) {
  Fig2Fixture fx;
  DatasetEstimator est(fx.data);
  PerAttributeCostModel cm(fx.schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(fx.schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  const CompiledPlan plan =
      CompiledPlan::Compile(planner.BuildPlan(fx.query));

  // The paper's sequential cost is 1.5; the conditional plan that branches
  // on time costs 1 + P(first predicate passes | branch) = 1.1.
  EXPECT_NEAR(planner.planner_stats().expected_cost, 1.1, 1e-9);
  const EmpiricalCostResult emp =
      EmpiricalPlanCost(plan, fx.data, fx.query, cm);
  EXPECT_NEAR(emp.mean_cost, 1.1, 1e-9);
  EXPECT_EQ(emp.verdict_errors, 0u);
  // The plan conditions on the free time attribute at the root.
  ASSERT_EQ(plan.root().kind, CompiledPlan::Kind::kSplit);
  EXPECT_EQ(plan.root().attr, 0);
}

TEST(ExhaustiveTest, ReportedCostMatchesEquation3) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 300, 21);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  Rng rng(22);
  for (int iter = 0; iter < 8; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng, 2);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const double eq3 = ExpectedPlanCost(plan, est, cm);
    ASSERT_NEAR(planner.planner_stats().expected_cost, eq3, 1e-9)
        << q.ToString(schema);
    // And equals the empirical training cost (Equation (4)).
    const EmpiricalCostResult emp = EmpiricalPlanCost(plan, ds, q, cm);
    ASSERT_NEAR(eq3, emp.mean_cost, 1e-9);
    ASSERT_EQ(emp.verdict_errors, 0u);
  }
}

TEST(ExhaustiveTest, VerdictsCorrectOverFullDomain) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 250, 23);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  Rng rng(24);
  for (int iter = 0; iter < 8; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    // Correct even on tuples never seen in training.
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, schema);
    EXPECT_TRUE(verified.correct)
        << "counterexample " << testing::PrintToString(verified.counterexample);
  }
}

TEST(ExhaustiveTest, NeverWorseThanOptSeqOnTraining) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 400, 25);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  OptSeqSolver optseq;
  SequentialPlanner seq(est, cm, optseq, "OptSeq");
  Rng rng(26);
  for (int iter = 0; iter < 8; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    const CompiledPlan pe = CompiledPlan::Compile(planner.BuildPlan(q));
    const CompiledPlan ps = CompiledPlan::Compile(seq.BuildPlan(q));
    const double ce = EmpiricalPlanCost(pe, ds, q, cm).mean_cost;
    const double cs = EmpiricalPlanCost(ps, ds, q, cm).mean_cost;
    ASSERT_LE(ce, cs + 1e-9) << q.ToString(schema);
  }
}

TEST(ExhaustiveTest, SupportsDisjunctiveQueries) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 300, 27);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  Query q = Query::Disjunction(
      {{Predicate(2, 3, 3), Predicate(0, 0, 1)}, {Predicate(3, 0, 1)}});
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
  const PlanVerificationResult verified = VerifyPlanExhaustive(plan, q, schema);
  EXPECT_TRUE(verified.correct)
      << "counterexample " << testing::PrintToString(verified.counterexample);
  const EmpiricalCostResult emp = EmpiricalPlanCost(plan, ds, q, cm);
  EXPECT_EQ(emp.verdict_errors, 0u);
}

TEST(ExhaustiveTest, RestrictedSpsfNeverBeatsUnrestricted) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 500, 28);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet all = SplitPointSet::AllPoints(schema);
  const SplitPointSet one = SplitPointSet::EquiSpaced(schema, {1, 1, 1, 1});
  Rng rng(29);
  for (int iter = 0; iter < 6; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    ExhaustivePlanner::Options oa;
    oa.split_points = &all;
    ExhaustivePlanner pa(est, cm, oa);
    ExhaustivePlanner::Options ob;
    ob.split_points = &one;
    ExhaustivePlanner pb(est, cm, ob);
    const CompiledPlan plan_all = CompiledPlan::Compile(pa.BuildPlan(q));
    const CompiledPlan plan_one = CompiledPlan::Compile(pb.BuildPlan(q));
    ASSERT_LE(pa.planner_stats().expected_cost,
              pb.planner_stats().expected_cost + 1e-9);
    // Both remain correct.
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan_one, q, schema);
    ASSERT_TRUE(verified.correct)
        << "counterexample " << testing::PrintToString(verified.counterexample);
  }
}

TEST(ExhaustiveTest, CacheIsExercised) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 300, 30);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  const Query q = Query::Conjunction({Predicate(2, 1, 2), Predicate(3, 1, 3)});
  (void)planner.BuildPlan(q);
  EXPECT_GT(planner.planner_stats().memo_misses, 0u);
  EXPECT_GT(planner.planner_stats().memo_hits, 0u);
  EXPECT_GT(planner.planner_stats().candidates_tried, 0u);
}

TEST(ExhaustiveTest, TrivialQueryDeterminedAtRoot) {
  Schema schema;
  schema.AddAttribute("a", 4, 1.0);
  Dataset ds(schema);
  ds.Append({0});
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  // Predicate spans the whole domain: always true.
  const CompiledPlan plan = CompiledPlan::Compile(
      planner.BuildPlan(Query::Conjunction({Predicate(0, 0, 3)})));
  ASSERT_EQ(plan.root().kind, CompiledPlan::Kind::kVerdict);
  EXPECT_TRUE(plan.root().verdict());
  EXPECT_EQ(planner.planner_stats().expected_cost, 0.0);
}

TEST(ExhaustiveTest, ExploitsSensorBoardSharing) {
  // Two expensive attributes share a board whose power-up dominates their
  // individual costs. The optimal plan under the board model evaluates them
  // back-to-back; the planner's expected cost must equal the board-model
  // Equation (3) cost and be no worse than the plan built against the flat
  // model, evaluated under the board model.
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 400, 31);
  DatasetEstimator est(ds);
  SensorBoardCostModel board_cm(schema, {-1, -1, 0, 0}, {70.0});
  PerAttributeCostModel flat_cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  const Query q =
      Query::Conjunction({Predicate(2, 1, 3), Predicate(3, 1, 3)});

  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner board_planner(est, board_cm, opts);
  ExhaustivePlanner flat_planner(est, flat_cm, opts);

  const CompiledPlan board_plan =
      CompiledPlan::Compile(board_planner.BuildPlan(q));
  const CompiledPlan flat_plan =
      CompiledPlan::Compile(flat_planner.BuildPlan(q));
  const double board_cost =
      EmpiricalPlanCost(board_plan, ds, q, board_cm).mean_cost;
  const double flat_under_board =
      EmpiricalPlanCost(flat_plan, ds, q, board_cm).mean_cost;
  EXPECT_LE(board_cost, flat_under_board + 1e-9);
  EXPECT_NEAR(board_planner.planner_stats().expected_cost, board_cost,
              1e-9);
  const PlanVerificationResult verified =
      VerifyPlanExhaustive(board_plan, q, schema);
  EXPECT_TRUE(verified.correct)
      << "counterexample " << testing::PrintToString(verified.counterexample);
}

// ---------------------------------------------------------------------
// Brute-force optimality: on binary domains, a split at 1 reveals the exact
// attribute value, so the optimal conditional plan equals the optimal
// *adaptive acquisition strategy*, computable by a small DP over partial
// assignments:
//   V(assigned) = 0 if the query is determined,
//   V(assigned) = min over unobserved a of C_a + sum_v P(v|assigned) V(...).
// ExhaustivePlanner with AllPoints must match this value exactly.

double BruteForceAdaptiveCost(const Dataset& ds, const Query& q,
                              const RangeVec& ranges,
                              const std::vector<RowId>& rows) {
  if (q.EvaluateOnRanges(ranges) != Truth::kUnknown) return 0.0;
  const Schema& schema = ds.schema();
  double best = std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (ranges[attr].Width() <= 1) continue;  // already observed
    double cost = schema.cost(attr);
    for (Value v = 0; v < schema.domain_size(attr); ++v) {
      std::vector<RowId> sub;
      for (RowId r : rows) {
        if (ds.at(r, attr) == v) sub.push_back(r);
      }
      if (sub.empty()) continue;
      const double p = static_cast<double>(sub.size()) / rows.size();
      cost += p * BruteForceAdaptiveCost(
                      ds, q, Refined(ranges, attr, ValueRange{v, v}), sub);
    }
    best = std::min(best, cost);
  }
  // If every attribute is observed the query must be determined, so `best`
  // is finite whenever we get here.
  return best;
}

class ExhaustiveBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveBruteForceTest, MatchesOptimalAdaptiveStrategy) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // 4 binary attributes with random costs and a correlated distribution.
  Schema schema;
  for (int a = 0; a < 4; ++a) {
    schema.AddAttribute(std::string("b").append(std::to_string(a)), 2,
                        std::floor(rng.Uniform(1.0, 50.0)));
  }
  Dataset ds(schema);
  for (int i = 0; i < 300; ++i) {
    const bool base = rng.Bernoulli(0.5);
    Tuple t(4);
    for (int a = 0; a < 4; ++a) {
      t[a] = static_cast<Value>(rng.Bernoulli(0.3) ? !base : base);
    }
    ds.Append(t);
  }
  // Random conjunctive query over 2 attributes.
  Query q = Query::Conjunction(
      {Predicate(0, 1, 1), Predicate(2, rng.Bernoulli(0.5) ? 1 : 0,
                                     rng.Bernoulli(0.5) ? 1 : 1)});
  if (!q.ValidFor(schema)) return;

  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));

  std::vector<RowId> all_rows(ds.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), RowId{0});
  const double brute =
      BruteForceAdaptiveCost(ds, q, schema.FullRanges(), all_rows);
  EXPECT_NEAR(planner.planner_stats().expected_cost, brute, 1e-9);
  const PlanVerificationResult verified = VerifyPlanExhaustive(plan, q, schema);
  EXPECT_TRUE(verified.correct)
      << "counterexample " << testing::PrintToString(verified.counterexample);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveBruteForceTest,
                         ::testing::Range(1, 13));

TEST(SplitPointSetTest, AllPointsCoversDomains) {
  const Schema schema = SmallSchema();
  const SplitPointSet s = SplitPointSet::AllPoints(schema);
  EXPECT_EQ(s.PointsFor(0).size(), 3u);  // K=4
  EXPECT_EQ(s.PointsFor(1).size(), 5u);  // K=6
  EXPECT_EQ(s.PointsFor(0).front(), 1);
  EXPECT_EQ(s.PointsFor(0).back(), 3);
}

TEST(SplitPointSetTest, EquiSpacedRespectsCounts) {
  Schema schema;
  schema.AddAttribute("a", 16, 1.0);
  const SplitPointSet s = SplitPointSet::EquiSpaced(schema, {3});
  ASSERT_EQ(s.PointsFor(0).size(), 3u);
  EXPECT_EQ(s.PointsFor(0)[0], 4);
  EXPECT_EQ(s.PointsFor(0)[1], 8);
  EXPECT_EQ(s.PointsFor(0)[2], 12);
}

TEST(SplitPointSetTest, EquiSpacedClampsToDomain) {
  Schema schema;
  schema.AddAttribute("a", 4, 1.0);
  const SplitPointSet s = SplitPointSet::EquiSpaced(schema, {100});
  EXPECT_EQ(s.PointsFor(0).size(), 3u);  // K-1 max
}

TEST(SplitPointSetTest, FromLog10SpsfDistributesBudget) {
  Schema schema;
  schema.AddAttribute("a", 64, 1.0);
  schema.AddAttribute("b", 64, 1.0);
  // SPSF = 10^2 over two attributes: ~10 points each.
  const SplitPointSet s = SplitPointSet::FromLog10Spsf(schema, 2.0);
  EXPECT_EQ(s.PointsFor(0).size(), 10u);
  EXPECT_EQ(s.PointsFor(1).size(), 10u);
  EXPECT_NEAR(s.Log10Spsf(), 2.0, 0.1);
}

}  // namespace
}  // namespace caqp
