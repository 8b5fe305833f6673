// AdaptivePlanner (Section 7 streams extension) tests: replanning kicks in
// after distribution drift and lowers realized cost; hysteresis prevents
// thrashing on stable streams.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/executor.h"
#include "opt/adaptive.h"
#include "opt/optseq.h"
#include "plan/plan_cost.h"
#include "prob/dataset_estimator.h"

namespace caqp {
namespace {

Schema StreamSchema() {
  Schema s;
  s.AddAttribute("cheap", 2, 1.0);
  s.AddAttribute("expA", 2, 50.0);
  s.AddAttribute("expB", 2, 50.0);
  return s;
}

/// Regime 0: cheap=1 implies expA likely 1 / expB likely 0.
/// Regime 1: the correlation flips.
Tuple DrawTuple(Rng& rng, int regime) {
  const bool c = rng.Bernoulli(0.5);
  bool a, b;
  if (regime == 0) {
    a = rng.Bernoulli(c ? 0.9 : 0.1);
    b = rng.Bernoulli(c ? 0.1 : 0.9);
  } else {
    a = rng.Bernoulli(c ? 0.1 : 0.9);
    b = rng.Bernoulli(c ? 0.9 : 0.1);
  }
  return {static_cast<Value>(c), static_cast<Value>(a),
          static_cast<Value>(b)};
}

struct Fixture {
  Schema schema = StreamSchema();
  PerAttributeCostModel cm{schema};
  SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  Query query =
      Query::Conjunction({Predicate(1, 1, 1), Predicate(2, 1, 1)});

  AdaptivePlanner Make(size_t window = 2000, size_t interval = 500) {
    AdaptivePlanner::Options opts;
    opts.window_size = window;
    opts.replan_interval = interval;
    opts.split_points = &splits;
    opts.seq_solver = &optseq;
    opts.max_splits = 4;
    return AdaptivePlanner(schema, query, cm, opts);
  }
};

TEST(AdaptiveTest, LearnsConditionalPlanFromStream) {
  Fixture fx;
  AdaptivePlanner planner = fx.Make();
  Rng rng(1);
  for (int i = 0; i < 3000; ++i) planner.Observe(DrawTuple(rng, 0));
  EXPECT_GT(planner.stats().replans_adopted, 0u);
  EXPECT_GT(planner.plan().NumSplits(), 0u);
}

TEST(AdaptiveTest, AdaptsAfterDrift) {
  Fixture fx;
  AdaptivePlanner planner = fx.Make(/*window=*/1500, /*interval=*/500);
  Rng rng(2);
  // Phase 1: learn regime 0.
  for (int i = 0; i < 3000; ++i) planner.Observe(DrawTuple(rng, 0));
  const size_t adopted_before = planner.stats().replans_adopted;

  // Phase 2: flip the regime; the stale plan misorders predicates.
  double drift_cost = 0;
  const int probe = 3000;
  for (int i = 0; i < probe; ++i) {
    drift_cost += planner.Observe(DrawTuple(rng, 1));
  }
  EXPECT_GT(planner.stats().replans_adopted, adopted_before);

  // Phase 3: once re-adapted, realized cost returns near the regime-0 rate.
  double settled_cost = 0;
  for (int i = 0; i < probe; ++i) {
    settled_cost += planner.Observe(DrawTuple(rng, 1));
  }
  EXPECT_LT(settled_cost, drift_cost);
}

TEST(AdaptiveTest, HysteresisAvoidsThrashingOnStableStream) {
  Fixture fx;
  AdaptivePlanner planner = fx.Make(/*window=*/2000, /*interval=*/250);
  Rng rng(3);
  for (int i = 0; i < 8000; ++i) planner.Observe(DrawTuple(rng, 0));
  // Replans considered often, but adopted only the first time or two: the
  // incumbent plan stays within the improvement threshold thereafter.
  EXPECT_GE(planner.stats().replans_considered, 10u);
  EXPECT_LE(planner.stats().replans_adopted, 3u);
}

TEST(AdaptiveTest, WindowEvictsStaleRegime) {
  // After far more than window_size tuples of the new regime, the window
  // holds only regime-1 data, so the adopted plan must match one trained
  // on pure regime-1 data in expected cost (within estimation noise).
  Fixture fx;
  AdaptivePlanner planner = fx.Make(/*window=*/1000, /*interval=*/250);
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) planner.Observe(DrawTuple(rng, 0));
  for (int i = 0; i < 6000; ++i) planner.Observe(DrawTuple(rng, 1));

  // Reference: plan trained on fresh regime-1 data only.
  Dataset fresh(fx.schema);
  Rng rng2(7);
  for (int i = 0; i < 4000; ++i) fresh.Append(DrawTuple(rng2, 1));
  DatasetEstimator est(fresh);
  GreedyPlanner::Options gopts;
  gopts.split_points = &fx.splits;
  gopts.seq_solver = &fx.optseq;
  gopts.max_splits = 4;
  GreedyPlanner reference(est, fx.cm, gopts);
  const CompiledPlan ref_plan =
      CompiledPlan::Compile(reference.BuildPlan(fx.query));

  const double adapted = EmpiricalPlanCost(planner.plan(), fresh, fx.query,
                                           fx.cm).mean_cost;
  const double ideal =
      EmpiricalPlanCost(ref_plan, fresh, fx.query, fx.cm).mean_cost;
  EXPECT_LT(adapted, ideal * 1.10);  // within 10% of regime-1-optimal
}

TEST(AdaptiveTest, StatsAccumulate) {
  Fixture fx;
  AdaptivePlanner planner = fx.Make();
  Rng rng(4);
  double total = 0;
  for (int i = 0; i < 100; ++i) total += planner.Observe(DrawTuple(rng, 0));
  EXPECT_EQ(planner.stats().tuples_seen, 100u);
  EXPECT_DOUBLE_EQ(planner.stats().total_cost, total);
  EXPECT_GT(total, 0.0);
}

TEST(AdaptiveTest, ColdStartPlanIsCorrect) {
  Fixture fx;
  AdaptivePlanner planner = fx.Make();
  // Before any replan, the plan must still answer correctly.
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Tuple t = DrawTuple(rng, 0);
    TupleSource src(t);
    const ExecutionResult res =
        ExecutePlan(planner.plan(), fx.schema, fx.cm, src);
    EXPECT_EQ(res.verdict, fx.query.Matches(t));
    planner.Observe(t);
  }
}

}  // namespace
}  // namespace caqp
