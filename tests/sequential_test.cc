// Sequential solver tests: OptSeq against brute-force enumeration of all m!
// orders, GreedySeq internal consistency and correlation-awareness, Naive
// ranking behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "opt/planner.h"
#include "plan/plan_cost.h"
#include "plan/plan_verify.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

/// Random SeqProblem over m predicates with a random sparse joint.
struct ProblemFixture {
  std::vector<Predicate> preds;
  MaskDistribution masks;
  std::vector<double> costs;
  SeqProblem problem;

  ProblemFixture(size_t m, uint64_t seed) {
    Rng rng(seed);
    for (size_t i = 0; i < m; ++i) {
      preds.emplace_back(static_cast<AttrId>(i), 0, 1);
      costs.push_back(rng.Uniform(1.0, 100.0));
    }
    const int entries = static_cast<int>(rng.UniformInt(3, 12));
    for (int e = 0; e < entries; ++e) {
      masks.Add(static_cast<uint64_t>(rng.UniformInt(0, (1 << m) - 1)),
                rng.Uniform(0.5, 5.0));
    }
    masks.Aggregate();
    problem.preds = preds;
    problem.masks = &masks;
    problem.cost = [this](size_t i, uint64_t) { return costs[i]; };
  }
};

double BruteForceBestOrder(const SeqProblem& problem,
                           std::vector<size_t>* best_order = nullptr) {
  std::vector<size_t> order(problem.preds.size());
  std::iota(order.begin(), order.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    const double c = SequentialOrderCost(problem, order);
    if (c < best) {
      best = c;
      if (best_order) *best_order = order;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

class OptSeqVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(OptSeqVsBruteForceTest, MatchesBestPermutation) {
  for (size_t m = 2; m <= 6; ++m) {
    ProblemFixture fx(m, static_cast<uint64_t>(GetParam()) * 1000 + m);
    OptSeqSolver solver;
    const SeqSolution sol = solver.Solve(fx.problem);
    const double brute = BruteForceBestOrder(fx.problem);
    ASSERT_NEAR(sol.expected_cost, brute, 1e-9) << "m=" << m;
    // The reported order realizes the reported cost.
    ASSERT_NEAR(SequentialOrderCost(fx.problem, sol.order), sol.expected_cost,
                1e-9);
    // Order is a permutation.
    std::vector<size_t> sorted = sol.order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < m; ++i) ASSERT_EQ(sorted[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptSeqVsBruteForceTest,
                         ::testing::Range(1, 16));

TEST(OptSeqTest, EmptyProblem) {
  MaskDistribution masks;
  masks.Add(0, 1.0);
  masks.Aggregate();
  SeqProblem p;
  p.masks = &masks;
  p.cost = [](size_t, uint64_t) { return 1.0; };
  OptSeqSolver solver;
  const SeqSolution sol = solver.Solve(p);
  EXPECT_EQ(sol.expected_cost, 0.0);
  EXPECT_TRUE(sol.order.empty());
}

TEST(OptSeqTest, SingleCertainFailureGoesFirst) {
  // pred0: cheap, always true. pred1: expensive, always false.
  // Best: evaluate pred1? No: pred1 costs 100 and always stops the plan;
  // pred0 costs 1 but never stops it. Cost(1 first) = 100;
  // Cost(0 first) = 1 + 100 = 101. So pred1 first.
  MaskDistribution masks;
  masks.Add(0b01, 1.0);  // pred0 true, pred1 false -- always.
  masks.Aggregate();
  SeqProblem p;
  p.preds = {Predicate(0, 0, 1), Predicate(1, 0, 1)};
  p.masks = &masks;
  p.cost = [](size_t i, uint64_t) { return i == 0 ? 1.0 : 100.0; };
  OptSeqSolver solver;
  const SeqSolution sol = solver.Solve(p);
  EXPECT_EQ(sol.order.front(), 1u);
  EXPECT_NEAR(sol.expected_cost, 100.0, 1e-9);
}

TEST(OptSeqTest, ExploitsSetDependentCosts) {
  // Board model: evaluating pred0 powers the board shared with pred1.
  MaskDistribution masks;
  masks.Add(0b11, 1.0);  // both always true: both must be evaluated.
  masks.Aggregate();
  SeqProblem p;
  p.preds = {Predicate(0, 0, 1), Predicate(1, 0, 1)};
  p.masks = &masks;
  p.cost = [](size_t i, uint64_t evaluated) {
    (void)i;
    return evaluated == 0 ? 60.0 : 10.0;  // first acquisition powers board
  };
  OptSeqSolver solver;
  const SeqSolution sol = solver.Solve(p);
  EXPECT_NEAR(sol.expected_cost, 70.0, 1e-9);
}

class GreedySeqConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedySeqConsistencyTest, ReportedCostMatchesOrderCost) {
  for (size_t m = 2; m <= 8; ++m) {
    ProblemFixture fx(m, static_cast<uint64_t>(GetParam()) * 77 + m);
    GreedySeqSolver solver;
    const SeqSolution sol = solver.Solve(fx.problem);
    ASSERT_EQ(sol.order.size(), m);
    ASSERT_NEAR(SequentialOrderCost(fx.problem, sol.order), sol.expected_cost,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedySeqConsistencyTest,
                         ::testing::Range(1, 11));

class GreedyVsOptTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsOptTest, GreedyWithinFourTimesOptimal) {
  // Munagala et al. prove a 4-approximation; verify on random instances.
  for (size_t m = 2; m <= 6; ++m) {
    ProblemFixture fx(m, static_cast<uint64_t>(GetParam()) * 313 + m);
    GreedySeqSolver greedy;
    OptSeqSolver opt;
    const double g = greedy.Solve(fx.problem).expected_cost;
    const double o = opt.Solve(fx.problem).expected_cost;
    ASSERT_GE(g + 1e-9, o);
    if (o > 0) {
      ASSERT_LE(g, 4.0 * o + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsOptTest, ::testing::Range(1, 16));

TEST(GreedySeqTest, UsesConditionalProbabilities) {
  // pred0 cheap & uninformative-but-cheap; preds 0 and 1 perfectly
  // correlated: once pred0 passes, pred1 always passes, so greedy should
  // learn the conditional p=1 and deprioritize pred1 relative to pred2.
  MaskDistribution masks;
  masks.Add(0b011, 5.0);  // 0,1 true; 2 false
  masks.Add(0b111, 5.0);  // all true
  masks.Add(0b100, 5.0);  // only 2 true
  masks.Add(0b000, 5.0);
  masks.Aggregate();
  SeqProblem p;
  p.preds = {Predicate(0, 0, 1), Predicate(1, 0, 1), Predicate(2, 0, 1)};
  p.masks = &masks;
  p.cost = [](size_t i, uint64_t) { return i == 0 ? 1.0 : 50.0; };
  GreedySeqSolver solver;
  const SeqSolution sol = solver.Solve(p);
  // pred0 first (cheap, p=0.5 -> rank 2). Then, conditioned on pred0,
  // pred1 has p=1 (rank inf) while pred2 has p=0.5 (rank 100): pred2 next.
  EXPECT_EQ(sol.order[0], 0u);
  EXPECT_EQ(sol.order[1], 2u);
  EXPECT_EQ(sol.order[2], 1u);
}

TEST(NaivePlannerTest, OrdersByCostOverDropProbability) {
  // Construct data where the expensive predicate is very selective and the
  // cheap one is not: rank(exp) = 100/(1-0.1)=111, rank(cheap)=1/(1-0.9)=10.
  Schema schema;
  schema.AddAttribute("cheap", 10, 1.0);
  schema.AddAttribute("exp", 10, 100.0);
  Dataset ds(schema);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    // cheap passes [0,8] ~90%; exp passes [0,0] ~10%.
    ds.Append({static_cast<Value>(rng.UniformInt(0, 9)),
               static_cast<Value>(rng.UniformInt(0, 9))});
  }
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  NaivePlanner planner(est, cm);
  Query q = Query::Conjunction({Predicate(0, 0, 8), Predicate(1, 0, 0)});
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
  ASSERT_EQ(plan.root().kind, CompiledPlan::Kind::kSequential);
  EXPECT_EQ(plan.sequence(plan.root())[0].attr, 0);  // cheap first by rank
  // With exp made selective enough, it would flip:
  Query q2 = Query::Conjunction({Predicate(0, 0, 8), Predicate(1, 9, 9)});
  // rank(exp) = 100/(1-0.1)=111 still > 10: cheap stays first.
  const CompiledPlan plan2 = CompiledPlan::Compile(planner.BuildPlan(q2));
  EXPECT_EQ(plan2.sequence(plan2.root())[0].attr, 0);
}

TEST(NaivePlannerTest, VerdictsAlwaysCorrect) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 400, 9);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  NaivePlanner planner(est, cm);
  Rng rng(10);
  for (int iter = 0; iter < 20; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, schema);
    EXPECT_TRUE(verified.correct)
        << "counterexample " << testing::PrintToString(verified.counterexample);
  }
}

TEST(SequentialPlannerTest, CorrSeqBeatsNaiveOnCorrelatedTraining) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 2000, 11, /*noise=*/0.15);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  OptSeqSolver optseq;
  SequentialPlanner corrseq(est, cm, optseq, "CorrSeq");
  NaivePlanner naive(est, cm);
  Rng rng(12);
  double naive_total = 0, corr_total = 0;
  for (int iter = 0; iter < 25; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    const CompiledPlan pn = CompiledPlan::Compile(naive.BuildPlan(q));
    const CompiledPlan pc = CompiledPlan::Compile(corrseq.BuildPlan(q));
    naive_total += EmpiricalPlanCost(pn, ds, q, cm).mean_cost;
    corr_total += EmpiricalPlanCost(pc, ds, q, cm).mean_cost;
  }
  // Optimal sequential on training data can never lose in aggregate.
  EXPECT_LE(corr_total, naive_total + 1e-6);
}

TEST(SolveSequentialLeafTest, DeterminedQueriesShortCircuit) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 100, 13);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  OptSeqSolver solver;
  RangeVec ranges = schema.FullRanges();
  ranges[0] = ValueRange{0, 0};
  // Query predicate determined false by the range.
  Query q = Query::Conjunction({Predicate(0, 2, 3)});
  SequentialLeaf leaf = SolveSequentialLeaf(q, ranges, est, cm, solver);
  EXPECT_EQ(leaf.expected_cost, 0.0);
  ASSERT_EQ(leaf.leaf->kind, PlanNode::Kind::kVerdict);
  EXPECT_FALSE(leaf.leaf->verdict);
}

}  // namespace
}  // namespace caqp
