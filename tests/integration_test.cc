// Cross-module integration properties, swept over random seeds:
//
//  * Every planner's plan decides every query correctly on every tuple of
//    the full domain (plans never err -- the paper's correctness guarantee).
//  * The training-data dominance chain holds:
//      Exhaustive <= Heuristic-10 <= Heuristic-1 <= Heuristic-0
//                 == CorrSeq <= Naive  (CorrSeq = OptSeq base).
//  * Estimator plug-compatibility: planners run against DatasetEstimator,
//    IndependentEstimator and ChowLiuEstimator without error, and the
//    Chow-Liu-planned plans remain correct.
//  * Train/test generalization on the synthetic generator: Heuristic beats
//    Naive in aggregate on held-out data.

#include <gtest/gtest.h>

#include "core/csv.h"
#include "data/synthetic_gen.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/plan_cost.h"
#include "plan/plan_verify.h"
#include "prob/chow_liu.h"
#include "prob/dataset_estimator.h"
#include "prob/independent_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

class PlannerSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerSweepTest, AllPlannersCorrectAndOrdered) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 500, seed * 101 + 7, 0.25);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;

  NaivePlanner naive(est, cm);
  SequentialPlanner corrseq(est, cm, optseq, "CorrSeq");
  auto greedy = [&](size_t k) {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &optseq;
    opts.max_splits = k;
    return GreedyPlanner(est, cm, opts);
  };
  ExhaustivePlanner::Options eopts;
  eopts.split_points = &splits;
  ExhaustivePlanner exhaustive(est, cm, eopts);

  Rng rng(seed * 13 + 1);
  for (int iter = 0; iter < 4; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng, 3);

    GreedyPlanner h0 = greedy(0), h1 = greedy(1), h10 = greedy(10);
    const CompiledPlan p_naive = CompiledPlan::Compile(naive.BuildPlan(q));
    const CompiledPlan p_corr = CompiledPlan::Compile(corrseq.BuildPlan(q));
    const CompiledPlan p_h0 = CompiledPlan::Compile(h0.BuildPlan(q));
    const CompiledPlan p_h1 = CompiledPlan::Compile(h1.BuildPlan(q));
    const CompiledPlan p_h10 = CompiledPlan::Compile(h10.BuildPlan(q));
    const CompiledPlan p_ex = CompiledPlan::Compile(exhaustive.BuildPlan(q));

    const CompiledPlan* plans[] = {&p_naive, &p_corr, &p_h0, &p_h1, &p_h10,
                                   &p_ex};
    for (const CompiledPlan* p : plans) {
      const PlanVerificationResult verified =
          VerifyPlanExhaustive(*p, q, schema);
      ASSERT_TRUE(verified.correct)
          << q.ToString(schema) << " counterexample "
          << testing::PrintToString(verified.counterexample);
    }

    const double c_naive = EmpiricalPlanCost(p_naive, ds, q, cm).mean_cost;
    const double c_corr = EmpiricalPlanCost(p_corr, ds, q, cm).mean_cost;
    const double c_h0 = EmpiricalPlanCost(p_h0, ds, q, cm).mean_cost;
    const double c_h1 = EmpiricalPlanCost(p_h1, ds, q, cm).mean_cost;
    const double c_h10 = EmpiricalPlanCost(p_h10, ds, q, cm).mean_cost;
    const double c_ex = EmpiricalPlanCost(p_ex, ds, q, cm).mean_cost;

    ASSERT_LE(c_corr, c_naive + 1e-9);
    ASSERT_NEAR(c_h0, c_corr, 1e-9);
    ASSERT_LE(c_h1, c_h0 + 1e-9);
    ASSERT_LE(c_h10, c_h1 + 1e-9);
    ASSERT_LE(c_ex, c_h10 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerSweepTest, ::testing::Range(1, 9));

class EstimatorPlugTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorPlugTest, PlannersRunOnEveryEstimator) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 800, seed * 37 + 3, 0.2);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  Rng rng(seed);
  const Query q = testing_util::RandomConjunctiveQuery(schema, rng, 2);

  DatasetEstimator direct(ds);
  IndependentEstimator indep(ds);
  ChowLiuEstimator::Options cl_opts;
  cl_opts.sample_count = 2048;
  ChowLiuEstimator chowliu(ds, cl_opts);

  CondProbEstimator* estimators[] = {&direct, &indep, &chowliu};
  for (CondProbEstimator* est : estimators) {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &optseq;
    opts.max_splits = 3;
    GreedyPlanner planner(*est, cm, opts);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, schema);
    ASSERT_TRUE(verified.correct)
        << "counterexample " << testing::PrintToString(verified.counterexample);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorPlugTest, ::testing::Range(1, 7));

TEST(IntegrationTest, HeuristicGeneralizesOnSyntheticHoldout) {
  SyntheticDataOptions opts;
  opts.n = 10;
  opts.gamma = 4;  // groups of 5: strong exploitable structure
  opts.sel = 0.6;
  opts.tuples = 24000;
  const Dataset all = GenerateSyntheticData(opts);
  const auto [train, test] = all.SplitFraction(0.5);
  const Query q = SyntheticAllExpensiveQuery(all.schema());

  DatasetEstimator est(train);
  PerAttributeCostModel cm(all.schema());
  const SplitPointSet splits = SplitPointSet::AllPoints(all.schema());
  GreedySeqSolver greedyseq;

  NaivePlanner naive(est, cm);
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &greedyseq;
  gopts.max_splits = 5;
  GreedyPlanner heuristic(est, cm, gopts);

  const CompiledPlan p_naive = CompiledPlan::Compile(naive.BuildPlan(q));
  const CompiledPlan p_h = CompiledPlan::Compile(heuristic.BuildPlan(q));
  const auto r_naive = EmpiricalPlanCost(p_naive, test, q, cm);
  const auto r_h = EmpiricalPlanCost(p_h, test, q, cm);
  EXPECT_EQ(r_naive.verdict_errors, 0u);
  EXPECT_EQ(r_h.verdict_errors, 0u);
  // Held-out win: conditioning on the cheap group witnesses should save
  // a substantial fraction of acquisition cost.
  EXPECT_LT(r_h.mean_cost, r_naive.mean_cost * 0.9);
}

TEST(IntegrationTest, ChowLiuHelpsWhenTrainingDataIsTiny) {
  // With very little training data, direct counting overfits while the
  // smoothed tree model keeps plans sane. We check both produce correct
  // plans and that Chow-Liu's plan cost on a large test set is competitive.
  SyntheticDataOptions opts;
  opts.n = 8;
  opts.gamma = 3;
  opts.sel = 0.5;
  opts.tuples = 20200;
  const Dataset all = GenerateSyntheticData(opts);
  const auto [train_full, test] = all.SplitFraction(0.01);  // 202 rows train
  const Query q = SyntheticAllExpensiveQuery(all.schema());
  PerAttributeCostModel cm(all.schema());
  const SplitPointSet splits = SplitPointSet::AllPoints(all.schema());
  GreedySeqSolver greedyseq;

  DatasetEstimator direct(train_full);
  ChowLiuEstimator::Options cl;
  cl.sample_count = 4096;
  ChowLiuEstimator smooth(train_full, cl);

  auto build = [&](CondProbEstimator& est) {
    GreedyPlanner::Options gopts;
    gopts.split_points = &splits;
    gopts.seq_solver = &greedyseq;
    gopts.max_splits = 5;
    GreedyPlanner planner(est, cm, gopts);
    return CompiledPlan::Compile(planner.BuildPlan(q));
  };
  const CompiledPlan p_direct = build(direct);
  const CompiledPlan p_smooth = build(smooth);
  const auto r_direct = EmpiricalPlanCost(p_direct, test, q, cm);
  const auto r_smooth = EmpiricalPlanCost(p_smooth, test, q, cm);
  EXPECT_EQ(r_direct.verdict_errors, 0u);
  EXPECT_EQ(r_smooth.verdict_errors, 0u);
  // The smoothed model should not be dramatically worse; typically better.
  EXPECT_LT(r_smooth.mean_cost, r_direct.mean_cost * 1.25);
}

TEST(IntegrationTest, BoardCostModelChangesPlans) {
  // When two expensive attributes share a power-hungry board, evaluating
  // them back-to-back is cheaper than interleaving: planner costs under the
  // board model must be <= the same plan costed naively per-attribute plus
  // power-ups.
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 800, 99, 0.3);
  DatasetEstimator est(ds);
  SensorBoardCostModel board_cm(schema, {-1, -1, 0, 0}, {60.0});
  PerAttributeCostModel flat_cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  const Query q =
      Query::Conjunction({Predicate(2, 2, 3), Predicate(3, 0, 2)});

  SequentialPlanner board_aware(est, board_cm, optseq, "board");
  const CompiledPlan p = CompiledPlan::Compile(board_aware.BuildPlan(q));
  const auto under_board = EmpiricalPlanCost(p, ds, q, board_cm);
  const auto under_flat = EmpiricalPlanCost(p, ds, q, flat_cm);
  // Board charges at least the flat cost.
  EXPECT_GE(under_board.mean_cost, under_flat.mean_cost);
  EXPECT_EQ(under_board.verdict_errors, 0u);
}

class DnfSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DnfSweepTest, ExhaustiveCorrectOnRandomDisjunctions) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  // Small schema so full-domain verification stays cheap.
  Schema schema;
  schema.AddAttribute("a", 3, 1.0);
  schema.AddAttribute("b", 4, 20.0);
  schema.AddAttribute("c", 3, 40.0);
  const Dataset ds = testing_util::CorrelatedDataset(schema, 400,
                                                     GetParam() * 31 + 5);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);

  for (int iter = 0; iter < 5; ++iter) {
    // 2-3 random conjuncts of 1-2 predicates each.
    std::vector<Conjunct> conjuncts;
    const int nconj = 2 + static_cast<int>(rng.UniformInt(0, 1));
    for (int ci = 0; ci < nconj; ++ci) {
      Conjunct c;
      std::vector<AttrId> attrs = {0, 1, 2};
      std::swap(attrs[0],
                attrs[static_cast<size_t>(rng.UniformInt(0, 2))]);
      const int npred = 1 + static_cast<int>(rng.UniformInt(0, 1));
      for (int pi = 0; pi < npred; ++pi) {
        const AttrId a = attrs[pi];
        const uint32_t k = schema.domain_size(a);
        Value lo = static_cast<Value>(rng.UniformInt(0, k - 1));
        Value hi = static_cast<Value>(rng.UniformInt(lo, k - 1));
        if (lo == 0 && hi == k - 1) hi = static_cast<Value>(k - 2);
        c.emplace_back(a, lo, hi, rng.Bernoulli(0.25));
      }
      conjuncts.push_back(std::move(c));
    }
    const Query q = Query::Disjunction(conjuncts);
    if (!q.ValidFor(schema)) continue;
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, schema);
    ASSERT_TRUE(verified.correct)
        << q.ToString(schema) << " counterexample "
        << testing::PrintToString(verified.counterexample);
    // The DP's reported cost is consistent with Equation (3).
    ASSERT_NEAR(planner.planner_stats().expected_cost,
                ExpectedPlanCost(plan, est, cm), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnfSweepTest, ::testing::Range(1, 9));

TEST(IntegrationTest, ExhaustiveHandlesExistentialNetworkQuery) {
  // Section 7 existential query over a small "network": does any mote see
  // (high A and high B)? DNF over per-mote conjuncts.
  Schema schema;
  schema.AddAttribute("hour", 4, 1.0);
  schema.AddAttribute("a0", 2, 30.0);
  schema.AddAttribute("b0", 2, 30.0);
  schema.AddAttribute("a1", 2, 30.0);
  schema.AddAttribute("b1", 2, 30.0);
  Rng rng(5);
  Dataset ds(schema);
  for (int i = 0; i < 1500; ++i) {
    const auto hour = static_cast<Value>(rng.UniformInt(0, 3));
    const double p = hour >= 2 ? 0.7 : 0.1;  // busy in the "afternoon"
    ds.Append({hour, static_cast<Value>(rng.Bernoulli(p)),
               static_cast<Value>(rng.Bernoulli(p)),
               static_cast<Value>(rng.Bernoulli(p)),
               static_cast<Value>(rng.Bernoulli(p))});
  }
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  Query q = Query::Disjunction({{Predicate(1, 1, 1), Predicate(2, 1, 1)},
                                {Predicate(3, 1, 1), Predicate(4, 1, 1)}});
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
  const PlanVerificationResult verified = VerifyPlanExhaustive(plan, q, schema);
  EXPECT_TRUE(verified.correct)
      << "counterexample " << testing::PrintToString(verified.counterexample);
  const auto res = EmpiricalPlanCost(plan, ds, q, cm);
  EXPECT_EQ(res.verdict_errors, 0u);
  EXPECT_GT(res.mean_cost, 0.0);
}

TEST(IntegrationTest, FullSixteenBitDomainEndToEnd) {
  // One attribute spans the whole 16-bit Value range, so every loop over a
  // value range reaches hi == 65535 and must stop there instead of wrapping.
  CsvTable table;
  table.column_names = {"wide", "narrow"};
  Rng rng(16);
  for (int i = 0; i < 300; ++i) {
    const int wide = i == 0 ? 0 : i == 1 ? 65535 : rng.UniformInt(0, 65535);
    const int narrow = wide >= 60000 ? 2 : rng.UniformInt(0, 1);
    table.rows.push_back({static_cast<double>(wide),
                          static_cast<double>(narrow)});
  }
  EXPECT_EQ(DatasetFromCsv(table, {{"wide", 65537, 5.0}, {"narrow", 3, 1.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const Result<Dataset> loaded =
      DatasetFromCsv(table, {{"wide", 65536, 5.0}, {"narrow", 3, 1.0}});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& data = *loaded;
  const Schema& schema = data.schema();
  ASSERT_EQ(schema.domain_size(0), 65536u);

  Histogram wide(65536);
  for (Value v : data.column(0)) wide.Add(v);
  EXPECT_DOUBLE_EQ(wide.RangeCount({0, 65535}), 300.0);
  EXPECT_DOUBLE_EQ(wide.RangeCount({65535, 65535}), wide.Count(65535));

  RangeVec top = schema.FullRanges();
  top[0] = {65000, 65535};
  const std::vector<Predicate> preds = {Predicate(0, 60000, 65535),
                                        Predicate(1, 2, 2)};
  IndependentEstimator independent(data);
  ChowLiuEstimator::Options copts;
  copts.sample_count = 32;
  ChowLiuEstimator chow_liu(data, copts);
  for (CondProbEstimator* est :
       std::initializer_list<CondProbEstimator*>{&independent, &chow_liu}) {
    EXPECT_GT(est->Marginal(schema.FullRanges(), 0).total(), 0.0);
    const Histogram h = est->Marginal(top, 0);
    EXPECT_GT(h.total(), 0.0);
    EXPECT_DOUBLE_EQ(h.RangeCount({0, 64999}), 0.0);
    EXPECT_GT(est->ReachProbability(top), 0.0);
    EXPECT_GT(est->PredicateMasks(schema.FullRanges(), preds).total(), 0.0);
    EXPECT_EQ(est->PerValuePredicateMasks(top, 0, preds).size(), 536u);
  }

  // Wide first: the generic leaf walks every value of the full range.
  DatasetEstimator est(data);
  PerAttributeCostModel cm(schema);
  const Query q =
      Query::Disjunction({{Predicate(0, 60000, 65535)},
                          {Predicate(1, 1, 1), Predicate(0, 0, 999)}});
  const CompiledPlan leaf =
      CompiledPlan::Compile(*PlanNode::Generic(q, {0, 1}));
  EXPECT_NEAR(ExpectedPlanCost(leaf, est, cm),
              EmpiricalPlanCost(leaf, data, q, cm).mean_cost, 1e-9);

  const SplitPointSet splits = SplitPointSet::EquiSpaced(schema, {3, 2});
  ExhaustivePlanner::Options xopts;
  xopts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, xopts);
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
  EXPECT_NEAR(planner.planner_stats().expected_cost,
              ExpectedPlanCost(plan, est, cm), 1e-9);
  const PlanVerificationResult verified = VerifyPlanExhaustive(plan, q, schema);
  EXPECT_TRUE(verified.correct)
      << "counterexample " << testing::PrintToString(verified.counterexample);
  EXPECT_EQ(verified.tuples_checked, 65536u * 3u);
}

}  // namespace
}  // namespace caqp
