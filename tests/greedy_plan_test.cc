// GreedyPlanner (Figures 6-7) tests: split-budget semantics, monotone
// improvement on training data, dominance relations (never worse than its
// sequential base plan; never better than Exhaustive), verdict correctness,
// and the Section 2.4 plan-size-penalty stopping rule.

#include <gtest/gtest.h>

#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/optseq.h"
#include "plan/plan_cost.h"
#include "plan/plan_verify.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

struct Toolkit {
  Schema schema = SmallSchema();
  Dataset ds;
  DatasetEstimator est;
  PerAttributeCostModel cm;
  SplitPointSet splits;
  OptSeqSolver optseq;

  explicit Toolkit(uint64_t seed, size_t rows = 600)
      : ds(CorrelatedDataset(schema, rows, seed, 0.2)),
        est(ds),
        cm(schema),
        splits(SplitPointSet::AllPoints(schema)) {}

  GreedyPlanner Planner(size_t max_splits, double alpha = 0.0) {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &optseq;
    opts.max_splits = max_splits;
    opts.size_penalty_alpha = alpha;
    return GreedyPlanner(est, cm, opts);
  }
};

TEST(GreedyPlanTest, ZeroSplitsEqualsSequentialBase) {
  Toolkit tk(41);
  GreedyPlanner g0 = tk.Planner(0);
  SequentialPlanner seq(tk.est, tk.cm, tk.optseq, "OptSeq");
  Rng rng(42);
  for (int iter = 0; iter < 10; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan pg = CompiledPlan::Compile(g0.BuildPlan(q));
    const CompiledPlan ps = CompiledPlan::Compile(seq.BuildPlan(q));
    EXPECT_EQ(pg.NumSplits(), 0u);
    EXPECT_NEAR(EmpiricalPlanCost(pg, tk.ds, q, tk.cm).mean_cost,
                EmpiricalPlanCost(ps, tk.ds, q, tk.cm).mean_cost, 1e-9);
  }
}

TEST(GreedyPlanTest, RespectsMaxSplits) {
  Toolkit tk(43);
  Rng rng(44);
  for (size_t k : {0u, 1u, 2u, 5u, 10u}) {
    GreedyPlanner planner = tk.Planner(k);
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    EXPECT_LE(plan.NumSplits(), k);
  }
}

TEST(GreedyPlanTest, TrainingCostMonotoneInSplitBudget) {
  Toolkit tk(45, 1200);
  Rng rng(46);
  for (int iter = 0; iter < 8; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    double prev = std::numeric_limits<double>::infinity();
    for (size_t k : {0u, 1u, 2u, 4u, 8u}) {
      GreedyPlanner planner = tk.Planner(k);
      const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
      const double cost = EmpiricalPlanCost(plan, tk.ds, q, tk.cm).mean_cost;
      ASSERT_LE(cost, prev + 1e-9)
          << "k=" << k << " query=" << q.ToString(tk.schema);
      prev = cost;
    }
  }
}

TEST(GreedyPlanTest, NeverWorseThanBaseNeverBetterThanExhaustive) {
  Toolkit tk(47, 800);
  ExhaustivePlanner::Options eopts;
  eopts.split_points = &tk.splits;
  ExhaustivePlanner exhaustive(tk.est, tk.cm, eopts);
  SequentialPlanner seq(tk.est, tk.cm, tk.optseq, "OptSeq");
  Rng rng(48);
  for (int iter = 0; iter < 6; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng, 2);
    GreedyPlanner heuristic = tk.Planner(10);
    const CompiledPlan ph = CompiledPlan::Compile(heuristic.BuildPlan(q));
    const CompiledPlan ps = CompiledPlan::Compile(seq.BuildPlan(q));
    const CompiledPlan pe = CompiledPlan::Compile(exhaustive.BuildPlan(q));
    const double ch = EmpiricalPlanCost(ph, tk.ds, q, tk.cm).mean_cost;
    const double cs = EmpiricalPlanCost(ps, tk.ds, q, tk.cm).mean_cost;
    const double ce = EmpiricalPlanCost(pe, tk.ds, q, tk.cm).mean_cost;
    ASSERT_LE(ch, cs + 1e-9);
    ASSERT_GE(ch, ce - 1e-9);
  }
}

TEST(GreedyPlanTest, VerdictsCorrectEverywhere) {
  Toolkit tk(49);
  Rng rng(50);
  GreedyPlanner planner = tk.Planner(6);
  for (int iter = 0; iter < 12; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, tk.schema);
    ASSERT_TRUE(verified.correct)
        << q.ToString(tk.schema) << " counterexample "
        << testing::PrintToString(verified.counterexample);
  }
}

TEST(GreedyPlanTest, ReportedCostMatchesEquation3) {
  Toolkit tk(51);
  Rng rng(52);
  GreedyPlanner planner = tk.Planner(5);
  for (int iter = 0; iter < 8; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const double eq3 = ExpectedPlanCost(plan, tk.est, tk.cm);
    ASSERT_NEAR(planner.planner_stats().expected_cost, eq3, 1e-6)
        << q.ToString(tk.schema);
  }
}

TEST(GreedyPlanTest, ExploitsCheapCorrelatedAttribute) {
  // Figure 2 structure: a cheap attribute flips which expensive predicate
  // is likely to fail. A split on it must be found and must pay off; a
  // correlation that never flips the predicate order would (correctly)
  // yield no split, so this fixture makes the flip unambiguous.
  Schema schema;
  schema.AddAttribute("cheap", 2, 1.0);
  schema.AddAttribute("expA", 2, 50.0);
  schema.AddAttribute("expB", 2, 50.0);
  Rng rng(53);
  Dataset ds(schema);
  for (int i = 0; i < 4000; ++i) {
    const bool c = rng.Bernoulli(0.5);
    const bool a = rng.Bernoulli(c ? 0.9 : 0.1);
    const bool b = rng.Bernoulli(c ? 0.1 : 0.9);
    ds.Append({static_cast<Value>(c), static_cast<Value>(a),
               static_cast<Value>(b)});
  }
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &optseq;
  opts.max_splits = 5;
  GreedyPlanner planner(est, cm, opts);
  SequentialPlanner seq(est, cm, optseq, "OptSeq");
  const Query q =
      Query::Conjunction({Predicate(1, 1, 1), Predicate(2, 1, 1)});
  const CompiledPlan pg = CompiledPlan::Compile(planner.BuildPlan(q));
  const CompiledPlan ps = CompiledPlan::Compile(seq.BuildPlan(q));
  const double cg = EmpiricalPlanCost(pg, ds, q, cm).mean_cost;
  const double cs = EmpiricalPlanCost(ps, ds, q, cm).mean_cost;
  EXPECT_GT(pg.NumSplits(), 0u);
  // Sequential ~75 units; conditional ~56 units.
  EXPECT_LT(cg, cs * 0.85);
  ASSERT_EQ(pg.root().kind, CompiledPlan::Kind::kSplit);
  EXPECT_EQ(pg.root().attr, 0);  // conditions on the cheap attribute
}

TEST(GreedyPlanTest, SizePenaltyShrinksPlans) {
  Toolkit tk(54, 1500);
  const Query q =
      Query::Conjunction({Predicate(2, 3, 3), Predicate(3, 3, 4)});
  GreedyPlanner free = tk.Planner(10, /*alpha=*/0.0);
  GreedyPlanner taxed = tk.Planner(10, /*alpha=*/50.0);
  const CompiledPlan p_free = CompiledPlan::Compile(free.BuildPlan(q));
  const CompiledPlan p_taxed = CompiledPlan::Compile(taxed.BuildPlan(q));
  EXPECT_LE(p_taxed.NumSplits(), p_free.NumSplits());
  EXPECT_LE(PlanSizeBytes(p_taxed), PlanSizeBytes(p_free));
  // An enormous alpha suppresses all splits.
  GreedyPlanner prohibitive = tk.Planner(10, /*alpha=*/1e9);
  EXPECT_EQ(CompiledPlan::Compile(prohibitive.BuildPlan(q)).NumSplits(), 0u);
}

TEST(GreedyPlanTest, HardByteBoundRespected) {
  Toolkit tk(61, 1500);
  const Query q =
      Query::Conjunction({Predicate(2, 3, 3), Predicate(3, 3, 4)});
  GreedyPlanner::Options opts;
  opts.split_points = &tk.splits;
  opts.seq_solver = &tk.optseq;
  opts.max_splits = 12;
  GreedyPlanner unbounded(tk.est, tk.cm, opts);
  const CompiledPlan big = CompiledPlan::Compile(unbounded.BuildPlan(q));

  for (const size_t budget : {24u, 48u, 96u}) {
    opts.max_plan_bytes = budget;
    GreedyPlanner bounded(tk.est, tk.cm, opts);
    const CompiledPlan plan = CompiledPlan::Compile(bounded.BuildPlan(q));
    EXPECT_LE(PlanSizeBytes(plan), budget) << "budget " << budget;
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, tk.schema);
    EXPECT_TRUE(verified.correct)
        << "counterexample " << testing::PrintToString(verified.counterexample);
  }
  // A generous budget changes nothing.
  opts.max_plan_bytes = 100000;
  GreedyPlanner roomy(tk.est, tk.cm, opts);
  EXPECT_EQ(PlanSizeBytes(CompiledPlan::Compile(roomy.BuildPlan(q))),
            PlanSizeBytes(big));
}

TEST(GreedyPlanTest, GreedySeqBaseAlsoWorks) {
  Toolkit tk(55);
  GreedySeqSolver greedyseq;
  GreedyPlanner::Options opts;
  opts.split_points = &tk.splits;
  opts.seq_solver = &greedyseq;
  opts.max_splits = 4;
  GreedyPlanner planner(tk.est, tk.cm, opts);
  Rng rng(56);
  for (int iter = 0; iter < 8; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    const PlanVerificationResult verified =
        VerifyPlanExhaustive(plan, q, tk.schema);
    ASSERT_TRUE(verified.correct)
        << "counterexample " << testing::PrintToString(verified.counterexample);
  }
}

TEST(GreedyPlanTest, NameReflectsBudget) {
  Toolkit tk(57);
  EXPECT_EQ(tk.Planner(5).Name(), "Heuristic-5");
  EXPECT_EQ(tk.Planner(0).Name(), "Heuristic-0");
}

TEST(GreedyPlanTest, DeterminedQueryShortCircuits) {
  Toolkit tk(58);
  GreedyPlanner planner = tk.Planner(5);
  // Whole-domain predicate: always true.
  const CompiledPlan plan = CompiledPlan::Compile(
      planner.BuildPlan(Query::Conjunction({Predicate(0, 0, 3)})));
  ASSERT_EQ(plan.root().kind, CompiledPlan::Kind::kVerdict);
  EXPECT_TRUE(plan.root().verdict());
}

TEST(GreedyPlanTest, StatsArepopulated) {
  Toolkit tk(59);
  GreedyPlanner planner = tk.Planner(3);
  const Query q =
      Query::Conjunction({Predicate(2, 3, 3), Predicate(3, 3, 4)});
  (void)planner.BuildPlan(q);
  EXPECT_GT(planner.planner_stats().split_searches, 0u);
  EXPECT_GT(planner.planner_stats().splits_considered, 0u);
}

TEST(GreedyPlanTest, SerializedPlanExecutesIdentically) {
  Toolkit tk(60);
  GreedyPlanner planner = tk.Planner(5);
  const Query q =
      Query::Conjunction({Predicate(2, 1, 2), Predicate(3, 2, 4)});
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
  auto back = DeserializeCompiledPlan(SerializePlan(plan), tk.schema);
  ASSERT_TRUE(back.ok());
  const auto a = EmpiricalPlanCost(plan, tk.ds, q, tk.cm);
  const auto b = EmpiricalPlanCost(*back, tk.ds, q, tk.cm);
  EXPECT_DOUBLE_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(b.verdict_errors, 0u);
}

}  // namespace
}  // namespace caqp
