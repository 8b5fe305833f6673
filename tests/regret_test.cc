// Minmax-regret planning under uncertainty (opt/uncertainty.h,
// opt/regret.h) and its serve-side drift-widening loop. Suites are named
// Regret* so scripts/check.sh's TSan stage selects them with
// ctest -R '^Regret'.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "fault/fault.h"
#include "obs/calibration.h"
#include "opt/cost_model.h"
#include "opt/exhaustive.h"
#include "opt/optseq.h"
#include "opt/split_points.h"
#include "opt/planner.h"
#include "opt/regret.h"
#include "opt/uncertainty.h"
#include "plan/plan_cost.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"
#include "serve/query_service.h"

namespace caqp {
namespace {

using opt::CornerScenarios;
using opt::CostBounds;
using opt::ExpectedPlanCostBounds;
using opt::RegretPlanner;
using opt::SharedUncertaintyBox;
using opt::UncertaintyBox;
using serve::QueryService;

// ---------------------------------------------------------------------------
// Shared fixture: the drift_test schema with EQUAL attribute costs, so plan
// choice is decided purely by (possibly shifted) selectivities:
//   regime A: P(a0 passes) = 0.10, P(a1 passes) = 0.90 -> a0 first, 5.5
//   regime B: P(a0 passes) = 0.95, P(a1 passes) = 0.05 -> a1 first, 5.25
// (the stale a0-first plan costs 9.75 on regime B traffic).

Schema EqualCostSchema() {
  Schema s;
  s.AddAttribute("a0", 10, 5.0);
  s.AddAttribute("a1", 10, 5.0);
  return s;
}

Query TwoPredQuery() {
  return Query::Conjunction({Predicate(0, 0, 0), Predicate(1, 0, 8)});
}

Dataset RegimeA(const Schema& schema, size_t rows = 1000) {
  Dataset ds(schema);
  for (size_t i = 0; i < rows; ++i) {
    Tuple t(2);
    t[0] = (i % 10 == 0) ? 0 : 5;  // passes a0 in [0,0] 10% of the time
    t[1] = (i % 10 == 9) ? 9 : 3;  // passes a1 in [0,8] 90% of the time
    ds.Append(t);
  }
  return ds;
}

Dataset RegimeB(const Schema& schema, size_t rows = 1000) {
  Dataset ds(schema);
  for (size_t i = 0; i < rows; ++i) {
    Tuple t(2);
    t[0] = (i % 20 == 0) ? 5 : 0;  // passes a0 95% of the time
    t[1] = (i % 20 == 1) ? 3 : 9;  // passes a1 5% of the time
    ds.Append(t);
  }
  return ds;
}

// The directional box a regime A -> B shift produces: a0 passes more than
// predicted (shift up to +0.85), a1 less (down to -0.85).
UncertaintyBox ShiftBox() {
  UncertaintyBox box;
  box.shift_hi[0] = 0.85;
  box.shift_lo[1] = -0.85;
  return box;
}

// ---------------------------------------------------------------------------
// RegretUncertaintyTest: box construction and corner enumeration.

TEST(RegretUncertaintyTest, UniformBoxIsSymmetricClampedAndDegenerateAtZero) {
  const UncertaintyBox box = UncertaintyBox::Uniform(0.2);
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    EXPECT_DOUBLE_EQ(box.shift_lo[a], -0.2);
    EXPECT_DOUBLE_EQ(box.shift_hi[a], 0.2);
    EXPECT_DOUBLE_EQ(box.fault_lo[a], 0.0);
    EXPECT_DOUBLE_EQ(box.fault_hi[a], 0.0);
  }
  EXPECT_FALSE(box.degenerate());
  EXPECT_DOUBLE_EQ(box.max_width(), 0.4);

  EXPECT_TRUE(UncertaintyBox::Uniform(0.0).degenerate());
  EXPECT_TRUE(UncertaintyBox().degenerate());
  EXPECT_EQ(UncertaintyBox().ToString(), "(point)");
  // eps clamps to [0, 1].
  EXPECT_DOUBLE_EQ(UncertaintyBox::Uniform(7.0).shift_hi[0], 1.0);
  EXPECT_TRUE(UncertaintyBox::Uniform(-1.0).degenerate());
}

TEST(RegretUncertaintyTest, FromCalibrationConvertsSignedDriftToIntervals) {
  obs::CalibrationReport report;
  // a0 drifted UP: observed 0.8 vs predicted 0.5 -> interval [0, +0.3].
  obs::AttrCalibration up;
  up.attr = 0;
  up.evals = 100;
  up.passes = 80;
  up.predicted_evals = 100.0;
  up.predicted_passes = 50.0;
  report.attrs.push_back(up);
  // a1 drifted DOWN: observed 0.2 vs predicted 0.6 -> interval [-0.4, 0].
  obs::AttrCalibration down;
  down.attr = 1;
  down.evals = 200;
  down.passes = 40;
  down.predicted_evals = 200.0;
  down.predicted_passes = 120.0;
  report.attrs.push_back(down);
  // a2: too few evals -> ignored under min_evals.
  obs::AttrCalibration sparse;
  sparse.attr = 2;
  sparse.evals = 3;
  sparse.passes = 3;
  sparse.predicted_evals = 3.0;
  sparse.predicted_passes = 0.0;
  report.attrs.push_back(sparse);

  const UncertaintyBox box =
      UncertaintyBox::FromCalibration(report, /*scale=*/1.0, /*cap=*/1.0,
                                      /*min_evals=*/50);
  EXPECT_DOUBLE_EQ(box.shift_lo[0], 0.0);
  EXPECT_NEAR(box.shift_hi[0], 0.3, 1e-12);
  EXPECT_NEAR(box.shift_lo[1], -0.4, 1e-12);
  EXPECT_DOUBLE_EQ(box.shift_hi[1], 0.0);
  EXPECT_DOUBLE_EQ(box.shift_lo[2], 0.0);
  EXPECT_DOUBLE_EQ(box.shift_hi[2], 0.0);
  // Directional boxes always contain the zero shift (lo <= 0 <= hi).
  EXPECT_LE(box.shift_lo[0], 0.0);
  EXPECT_GE(box.shift_hi[0], 0.0);

  // scale stretches, cap clamps.
  const UncertaintyBox half =
      UncertaintyBox::FromCalibration(report, 0.5, 1.0, 50);
  EXPECT_NEAR(half.shift_hi[0], 0.15, 1e-12);
  const UncertaintyBox capped =
      UncertaintyBox::FromCalibration(report, 1.0, 0.1, 50);
  EXPECT_NEAR(capped.shift_hi[0], 0.1, 1e-12);
  EXPECT_NEAR(capped.shift_lo[1], -0.1, 1e-12);
}

TEST(RegretUncertaintyTest, FromFaultSpecBracketsTransientRates) {
  FaultSpec spec;
  spec.transient = 0.1;
  spec.transient_overrides.emplace_back(AttrId{2}, 0.5);
  const UncertaintyBox box = UncertaintyBox::FromFaultSpec(spec, /*eps=*/0.05);
  EXPECT_NEAR(box.fault_lo[0], 0.05, 1e-12);
  EXPECT_NEAR(box.fault_hi[0], 0.15, 1e-12);
  EXPECT_NEAR(box.fault_lo[2], 0.45, 1e-12);
  EXPECT_NEAR(box.fault_hi[2], 0.55, 1e-12);
  // Shift intervals stay degenerate; rates clamp into [0, max_rate].
  EXPECT_DOUBLE_EQ(box.shift_lo[0], 0.0);
  EXPECT_DOUBLE_EQ(box.shift_hi[0], 0.0);
  FaultSpec hot;
  hot.transient = 0.94;
  EXPECT_DOUBLE_EQ(UncertaintyBox::FromFaultSpec(hot, 0.5).fault_hi[0], 0.95);
  // A fault-free spec with no widening produces a point box.
  EXPECT_TRUE(UncertaintyBox::FromFaultSpec(FaultSpec{}).degenerate());
}

TEST(RegretUncertaintyTest, MergeFromIsPointwiseUnion) {
  UncertaintyBox a;
  a.shift_lo[0] = -0.1;
  a.shift_hi[0] = 0.2;
  a.fault_hi[1] = 0.3;
  UncertaintyBox b;
  b.shift_lo[0] = -0.3;
  b.shift_hi[0] = 0.1;
  b.fault_hi[1] = 0.1;
  b.shift_hi[2] = 0.4;
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.shift_lo[0], -0.3);
  EXPECT_DOUBLE_EQ(a.shift_hi[0], 0.2);
  EXPECT_DOUBLE_EQ(a.fault_hi[1], 0.3);
  EXPECT_DOUBLE_EQ(a.shift_hi[2], 0.4);
}

TEST(RegretUncertaintyTest, CornerScenariosNominalFirstFullProductWhenSmall) {
  const UncertaintyBox box = ShiftBox();  // two uncertain attributes
  const std::vector<CostScenario> scenarios = CornerScenarios(box);
  // Nominal + the full 2^2 corner product.
  ASSERT_EQ(scenarios.size(), 5u);
  // Nominal comes first: zero shift (both intervals contain 0), lo faults.
  EXPECT_DOUBLE_EQ(scenarios[0].shift[0], 0.0);
  EXPECT_DOUBLE_EQ(scenarios[0].shift[1], 0.0);
  // The all-hi corner (a0 at +0.85, a1 at 0) and the all-lo corner (a0 at
  // 0, a1 at -0.85) are both present.
  bool saw_hi0 = false, saw_lo1 = false, saw_both = false;
  for (const CostScenario& s : scenarios) {
    if (s.shift[0] == 0.85 && s.shift[1] == 0.0) saw_hi0 = true;
    if (s.shift[0] == 0.0 && s.shift[1] == -0.85) saw_lo1 = true;
    if (s.shift[0] == 0.85 && s.shift[1] == -0.85) saw_both = true;
  }
  EXPECT_TRUE(saw_hi0);
  EXPECT_TRUE(saw_lo1);
  EXPECT_TRUE(saw_both);
  // Degenerate box: just the nominal scenario.
  EXPECT_EQ(CornerScenarios(UncertaintyBox()).size(), 1u);
}

TEST(RegretUncertaintyTest, CornerScenariosRespectsCapDeterministically) {
  // Uniform boxes perturb all 64 attributes -> 2^64 corners; the sweep must
  // cap out, stay deterministic, and keep the nominal scenario first.
  const UncertaintyBox box = UncertaintyBox::Uniform(0.1);
  const std::vector<CostScenario> a = CornerScenarios(box, 16);
  const std::vector<CostScenario> b = CornerScenarios(box, 16);
  ASSERT_EQ(a.size(), 16u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shift, b[i].shift);
    EXPECT_EQ(a[i].fault, b[i].fault);
  }
  EXPECT_DOUBLE_EQ(a[0].shift[0], 0.0);
  // The all-lo and all-hi extremes survive the cap.
  bool all_lo = false, all_hi = false;
  for (const CostScenario& s : a) {
    if (s.shift[0] == -0.1 && s.shift[63] == -0.1) all_lo = true;
    if (s.shift[0] == 0.1 && s.shift[63] == 0.1) all_hi = true;
  }
  EXPECT_TRUE(all_lo);
  EXPECT_TRUE(all_hi);
}

// ---------------------------------------------------------------------------
// RegretCostTest: ExpectedPlanCost at a scenario against the point cost.

struct CostFixture {
  Schema schema = EqualCostSchema();
  PerAttributeCostModel cm{schema};
  Dataset data = RegimeA(schema);
  DatasetEstimator est{data};
  OptSeqSolver solver;
  SequentialPlanner planner{est, cm, solver, "OptSeq"};
};

TEST(RegretCostTest, ZeroScenarioReproducesExpectedPlanCostExactly) {
  CostFixture fx;
  const Plan plan = fx.planner.BuildPlan(TwoPredQuery());
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  const double point = ExpectedPlanCost(compiled, fx.est, fx.cm);
  EXPECT_NEAR(point, 5.5, 1e-9);  // a0 first: 5 + 0.1 * 5
  // Bit-for-bit, not just close: the zero scenario is the point cost.
  EXPECT_EQ(ExpectedPlanCost(compiled, fx.est, fx.cm, CostScenario{}), point);
}

TEST(RegretCostTest, ShiftedScenarioMovesPassProbabilities) {
  CostFixture fx;
  const Plan plan = fx.planner.BuildPlan(TwoPredQuery());
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  CostScenario s;
  s.shift[0] = 0.85;  // a0 now passes ~0.95 of the time
  // a0-first plan: 5 + clamp01(0.1 + 0.85) * 5 = 9.75.
  EXPECT_NEAR(ExpectedPlanCost(compiled, fx.est, fx.cm, s), 9.75, 1e-9);
  // Shifts clamp at 1: pushing further changes nothing.
  s.shift[0] = 5.0;
  EXPECT_NEAR(ExpectedPlanCost(compiled, fx.est, fx.cm, s), 10.0, 1e-9);
}

TEST(RegretCostTest, FaultRateMultipliesAcquisitionCost) {
  CostFixture fx;
  const Plan plan = fx.planner.BuildPlan(TwoPredQuery());
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  const double point = ExpectedPlanCost(compiled, fx.est, fx.cm);
  // A 50% transient rate on every attribute doubles every acquisition
  // under retry-until-success: cost * 1/(1 - 0.5).
  CostScenario s;
  for (size_t a = 0; a < kMaxAttributes; ++a) s.fault[a] = 0.5;
  EXPECT_NEAR(ExpectedPlanCost(compiled, fx.est, fx.cm, s), 2.0 * point,
              1e-9);
}

TEST(RegretCostTest, BoundsContainPointCostAndCollapseOnPointBox) {
  CostFixture fx;
  const Plan plan = fx.planner.BuildPlan(TwoPredQuery());
  const CompiledPlan compiled = CompiledPlan::Compile(plan);
  const double point = ExpectedPlanCost(compiled, fx.est, fx.cm);

  const CostBounds b =
      ExpectedPlanCostBounds(compiled, fx.est, fx.cm, ShiftBox());
  EXPECT_LE(b.lo, point);
  EXPECT_GE(b.hi, point);
  EXPECT_LT(b.lo, b.hi);
  EXPECT_NEAR(b.hi, 9.75, 1e-9);  // a0 shifted to 0.95

  const CostBounds tight =
      ExpectedPlanCostBounds(compiled, fx.est, fx.cm, UncertaintyBox());
  EXPECT_DOUBLE_EQ(tight.lo, point);
  EXPECT_DOUBLE_EQ(tight.hi, point);
}

TEST(RegretCostTest, StampEstimatesRecordsBoxAndBounds) {
  PlanEstimates est;
  UncertaintyBox box = ShiftBox();
  opt::StampEstimatesWithBox(est, box, CostBounds{5.25, 9.75});
  EXPECT_TRUE(est.has_cost_bounds);
  EXPECT_DOUBLE_EQ(est.cost_lo, 5.25);
  EXPECT_DOUBLE_EQ(est.cost_hi, 9.75);
  EXPECT_DOUBLE_EQ(est.box_shift_hi[0], 0.85);
  EXPECT_DOUBLE_EQ(est.box_shift_lo[1], -0.85);
}

// ---------------------------------------------------------------------------
// RegretPlannerTest: plan selection over the box.

TEST(RegretPlannerTest, DegenerateBoxReproducesPointPlanBitIdentically) {
  CostFixture fx;
  RegretPlanner::Options opts;
  opts.point_planner = &fx.planner;
  opts.box = UncertaintyBox();  // point box
  const RegretPlanner regret(fx.est, fx.cm, std::move(opts));

  const Query q = TwoPredQuery();
  const CompiledPlan point = CompiledPlan::Compile(fx.planner.BuildPlan(q));
  const CompiledPlan robust = CompiledPlan::Compile(regret.BuildPlan(q));
  EXPECT_EQ(SerializePlan(robust), SerializePlan(point));
  EXPECT_TRUE(regret.planner_stats().degenerate_fallback);
  EXPECT_DOUBLE_EQ(regret.planner_stats().worst_case_regret, 0.0);
}

TEST(RegretPlannerTest, PicksRobustOrderingUnderDirectionalBox) {
  CostFixture fx;
  RegretPlanner::Options opts;
  opts.point_planner = &fx.planner;
  opts.box = ShiftBox();
  const RegretPlanner regret(fx.est, fx.cm, std::move(opts));

  const Query q = TwoPredQuery();
  const CompiledPlan point = CompiledPlan::Compile(fx.planner.BuildPlan(q));
  const CompiledPlan robust = CompiledPlan::Compile(regret.BuildPlan(q));

  // Corner costs (equal attribute costs, conditional probs from regime A):
  //   a0-first: 5.5 nominal, 9.75 when a0 shifts up   -> max regret 4.5
  //   a1-first: 9.5 nominal (regret 4.0), 5.25 shifted -> max regret 4.0
  // Minmax regret therefore abandons the point plan for a1-first.
  EXPECT_NE(SerializePlan(robust), SerializePlan(point));
  EXPECT_NEAR(ExpectedPlanCost(robust, fx.est, fx.cm), 9.5, 1e-9);
  CostScenario shifted;
  shifted.shift[0] = 0.85;
  shifted.shift[1] = -0.85;
  EXPECT_NEAR(ExpectedPlanCost(robust, fx.est, fx.cm, shifted), 5.25, 1e-9);

  const obs::PlannerStats& st = regret.planner_stats();
  EXPECT_FALSE(st.degenerate_fallback);
  EXPECT_GE(st.candidates, 3u);  // point plan + both orderings
  EXPECT_GE(st.scenarios, 5u);
  EXPECT_NEAR(st.worst_case_regret, 4.0, 1e-9);
  EXPECT_NEAR(st.point_plan_regret, 4.5, 1e-9);
  // The robust pick never does worse (in max regret) than the point plan.
  EXPECT_LE(st.worst_case_regret, st.point_plan_regret);
}

TEST(RegretPlannerTest, BoxProviderOverridesStaticBox) {
  CostFixture fx;
  auto shared = std::make_shared<SharedUncertaintyBox>();
  RegretPlanner::Options opts;
  opts.point_planner = &fx.planner;
  opts.box = ShiftBox();  // would pick a1-first...
  opts.box_provider = [shared] { return shared->Get(); };
  const RegretPlanner regret(fx.est, fx.cm, std::move(opts));

  const Query q = TwoPredQuery();
  const auto wire = [&q](const Planner& planner) {
    return SerializePlan(CompiledPlan::Compile(planner.BuildPlan(q)));
  };
  // ...but the provider currently says "point": fall back verbatim.
  EXPECT_EQ(wire(regret), wire(fx.planner));
  EXPECT_TRUE(regret.planner_stats().degenerate_fallback);
  // Widen the shared box at runtime: the next build plans robustly.
  shared->Widen(ShiftBox());
  EXPECT_NE(wire(regret), wire(fx.planner));
  EXPECT_FALSE(regret.planner_stats().degenerate_fallback);
}

TEST(RegretPlannerTest, NonConjunctiveQueryFallsBackToPointPlanner) {
  CostFixture fx;
  // The sequential-ordering candidates only exist for conjunctive queries;
  // DNF queries need a point planner that handles them (ExhaustivePlanner
  // is the only one that does).
  const SplitPointSet splits = SplitPointSet::AllPoints(fx.schema);
  ExhaustivePlanner::Options eopts;
  eopts.split_points = &splits;
  const ExhaustivePlanner exhaustive(fx.est, fx.cm, eopts);
  RegretPlanner::Options opts;
  opts.point_planner = &exhaustive;
  opts.box = ShiftBox();
  const RegretPlanner regret(fx.est, fx.cm, std::move(opts));

  const Query dnf = Query::Disjunction(
      {{Predicate(0, 0, 0)}, {Predicate(1, 0, 8)}});
  const CompiledPlan robust = CompiledPlan::Compile(regret.BuildPlan(dnf));
  EXPECT_EQ(SerializePlan(robust),
            SerializePlan(CompiledPlan::Compile(exhaustive.BuildPlan(dnf))));
  EXPECT_EQ(regret.planner_stats().candidates, 1u);
}

// ---------------------------------------------------------------------------
// RegretDriftTest: the end-to-end widen-don't-just-invalidate loop. A
// QueryService in widen mode serves traffic that shifts regime A -> B. The
// estimator is NEVER retrained — recovery must come entirely from the
// drift window's box making the regret planner choose the robust ordering.

/// Per-worker robust bundle: a regime-A estimator (stale by design), an
/// OptSeq point planner, and a RegretPlanner following the shared box the
/// service's widen hook installs.
class RobustBuilder : public serve::PlanBuilder {
 public:
  RobustBuilder(const Schema& schema, const AcquisitionCostModel& cm,
                std::shared_ptr<SharedUncertaintyBox> box)
      : data_(RegimeA(schema)),
        est_(data_),
        point_(est_, cm, solver_, "OptSeq"),
        box_(std::move(box)) {
    RegretPlanner::Options opts;
    opts.point_planner = &point_;
    opts.box_provider = [b = box_] { return b->Get(); };
    regret_ = std::make_unique<RegretPlanner>(est_, cm, std::move(opts));
  }

  Plan Build(const Query& query) override {
    return regret_->BuildPlan(query);
  }
  uint64_t ConfigFingerprint() const override { return 0x4E68E7; }
  CondProbEstimator* CalibrationEstimator() override { return &est_; }
  bool PlanningBox(UncertaintyBox* out) override {
    *out = box_->Get();
    return !out->degenerate();
  }

 private:
  Dataset data_;
  DatasetEstimator est_;
  OptSeqSolver solver_;
  SequentialPlanner point_;
  std::shared_ptr<SharedUncertaintyBox> box_;
  std::unique_ptr<RegretPlanner> regret_;
};

TEST(RegretDriftTest, WidenModeConvergesInOneInvalidation) {
  const Schema schema = EqualCostSchema();
  const PerAttributeCostModel cm(schema);
  const Dataset traffic_a = RegimeA(schema);
  const Dataset traffic_b = RegimeB(schema);
  auto shared_box = std::make_shared<SharedUncertaintyBox>();

  serve::DriftPolicy policy;
  policy.threshold = 0.3;
  policy.consecutive_windows = 2;
  policy.min_window_evals = 50;
  policy.widen_on_drift = true;
  policy.on_widen = [shared_box](const UncertaintyBox& box,
                                 const obs::CalibrationReport&) {
    shared_box->Set(box);
  };

  QueryService::Options opts;
  opts.num_workers = 2;
  opts.cache_capacity = 64;
  opts.enable_calibration = true;
  opts.drift = std::move(policy);
  serve::QueryService service(
      schema, cm,
      [&] { return std::make_unique<RobustBuilder>(schema, cm, shared_box); },
      opts);

  const Query q = TwoPredQuery();
  const auto serve_batch = [&](const Dataset& traffic, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const QueryService::Response r =
          service.SubmitAndWait(q, traffic.GetTuple(i % traffic.num_rows()));
      ASSERT_TRUE(r.ok());
    }
  };

  // Window 1: on-distribution. The shared box is degenerate, so the regret
  // planner serves the point plan (a0 first, realized 5.5).
  serve_batch(traffic_a, 200);
  const serve::DriftStatus w1 = service.CheckDrift();
  EXPECT_FALSE(w1.over_threshold);
  EXPECT_FALSE(w1.widened);
  EXPECT_TRUE(w1.box.degenerate());
  ASSERT_EQ(w1.window.plans.size(), 1u);
  EXPECT_NEAR(w1.window.plans[0].realized_mean_cost(), 5.5, 0.05);
  // Point planning: no cost interval stamped on the plan.
  EXPECT_FALSE(w1.window.plans[0].has_cost_bounds);

  // Window 2: regime shifts under the stale plan — debounced, no firing.
  serve_batch(traffic_b, 200);
  const serve::DriftStatus w2 = service.CheckDrift();
  EXPECT_TRUE(w2.over_threshold);
  EXPECT_GT(w2.excess_drift, 0.3);  // no box installed: excess == max drift
  EXPECT_EQ(w2.streak, 1);
  EXPECT_FALSE(w2.fired);
  EXPECT_EQ(service.estimator_version(), 0u);

  // Window 3: still shifted — fires ONCE, widens, installs the box.
  serve_batch(traffic_b, 200);
  const serve::DriftStatus w3 = service.CheckDrift();
  EXPECT_TRUE(w3.fired);
  EXPECT_TRUE(w3.widened);
  EXPECT_EQ(service.estimator_version(), 1u);
  // The box is directional: a0 drifted up (observed 0.95 vs predicted
  // 0.10), a1 down — exactly the regime B move.
  EXPECT_GT(w3.box.shift_hi[0], 0.5);
  EXPECT_DOUBLE_EQ(w3.box.shift_lo[0], 0.0);
  EXPECT_LT(w3.box.shift_lo[1], -0.5);
  EXPECT_DOUBLE_EQ(w3.box.shift_hi[1], 0.0);
  EXPECT_FALSE(service.CurrentUncertaintyBox().degenerate());
  // The stale plan ran ~9.75 on shifted traffic.
  ASSERT_EQ(w3.window.plans.size(), 1u);
  EXPECT_NEAR(w3.window.plans[0].realized_mean_cost(), 9.75, 0.05);

  // Window 4: replanned under the installed box. The regret planner picks
  // the robust ordering (a1 first), landing within 10% of the post-shift
  // optimal 5.25 — with NO retraining and NO second invalidation: the
  // residual drift is inside the box, so excess drift stays under
  // threshold and the loop converges after exactly one firing.
  serve_batch(traffic_b, 200);
  const serve::DriftStatus w4 = service.CheckDrift();
  ASSERT_EQ(w4.window.plans.size(), 1u);
  EXPECT_EQ(w4.window.plans[0].key.estimator_version, 1u);
  const double realized = w4.window.plans[0].realized_mean_cost();
  EXPECT_LE(realized, 5.25 * 1.10);
  // The robust plan carries its interval promise, and kept it.
  EXPECT_TRUE(w4.window.plans[0].has_cost_bounds);
  EXPECT_LE(w4.window.plans[0].predicted_cost_lo, realized + 0.05);
  EXPECT_GE(w4.window.plans[0].predicted_cost_hi, realized - 0.05);
  // Raw drift persists (the estimator still predicts regime A), but the
  // box already hedges it: excess drift is small and nothing re-fires.
  EXPECT_LT(w4.excess_drift, 0.3);
  EXPECT_FALSE(w4.fired);
  EXPECT_FALSE(w4.widened);
  EXPECT_EQ(service.estimator_version(), 1u);

  // Window 5: still regime B — steady state, still exactly one firing.
  serve_batch(traffic_b, 200);
  const serve::DriftStatus w5 = service.CheckDrift();
  EXPECT_FALSE(w5.fired);
  EXPECT_EQ(service.estimator_version(), 1u);
}

}  // namespace
}  // namespace caqp
