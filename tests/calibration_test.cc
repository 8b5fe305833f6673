// Plan-quality calibration tests: EstimatePlan's predicted side tables
// (against both ExpectedPlanCost and empirical execution frequencies),
// ExecutionProfile counter semantics including the fault-injection and
// single-tuple edge cases, CalibrationAggregator merging, report windowing
// (DeltaSince), and the concurrent profile/snapshot stress that
// scripts/check.sh runs under ThreadSanitizer (suites here are named
// Calibration* so the TSan build selects them with ctest -R '^Calibration').

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/batch_executor.h"
#include "exec/exec_profile.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "obs/calibration.h"
#include "obs/obs.h"
#include "opt/cost_model.h"
#include "opt/greedy_plan.h"
#include "opt/optseq.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"
#include "plan/plan_estimates.h"
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

  explicit Toolkit(uint64_t seed, size_t rows = 500)
      : ds(CorrelatedDataset(schema, rows, seed, 0.2)),
        est(ds),
        cm(schema),
        splits(SplitPointSet::AllPoints(schema)) {}

  CompiledPlan Compile(const Query& q, size_t max_splits = 3) {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &optseq;
    opts.max_splits = max_splits;
    GreedyPlanner planner(est, cm, opts);
    return CompiledPlan::Compile(planner.BuildPlan(q));
  }
};

// ---------------------------------------------------------------------------
// EstimatePlan: predicted side tables
// ---------------------------------------------------------------------------

TEST(CalibrationEstimateTest, ExpectedCostMatchesExpectedPlanCost) {
  Toolkit tk(21);
  Rng rng(22);
  for (int iter = 0; iter < 12; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan plan = tk.Compile(q);
    const PlanEstimates pe = EstimatePlan(plan, tk.est, tk.cm);
    ASSERT_EQ(pe.nodes.size(), plan.NumNodes());
    // EstimatePlan is the ExpectedPlanCost walk, so the totals agree bit
    // for bit.
    EXPECT_EQ(pe.expected_cost, ExpectedPlanCost(plan, tk.est, tk.cm))
        << q.ToString(tk.schema);
    // The per-node decomposition re-sums to the total.
    double resum = 0.0;
    for (const NodeEstimate& n : pe.nodes) resum += n.reach * n.cost;
    EXPECT_NEAR(resum, pe.expected_cost, 1e-9);
    EXPECT_DOUBLE_EQ(pe.nodes[0].reach, 1.0);  // root always reached
  }
}

TEST(CalibrationEstimateTest, PredictionsMatchObservedFrequenciesOnTrainingData) {
  // A DatasetEstimator's beliefs are exact over its own dataset, so when the
  // served tuples ARE the training data, predicted per-node reach/pass and
  // per-attribute rates must match the executor's observed counters (up to
  // rounding: counts are integers, predictions are expectations).
  Toolkit tk(31);
  Rng rng(32);
  const size_t rows = tk.ds.num_rows();
  for (int iter = 0; iter < 6; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(tk.schema, rng);
    const CompiledPlan plan = tk.Compile(q);
    const PlanEstimates pe = EstimatePlan(plan, tk.est, tk.cm);

    ExecutionProfile profile(plan.NumNodes());
    double total_cost = 0.0;
    for (RowId r = 0; r < rows; ++r) {
      const Tuple t = tk.ds.GetTuple(r);
      TupleSource source(t);
      const ExecutionResult res =
          ExecutePlan(plan, tk.schema, tk.cm, source, nullptr, {}, &profile);
      total_cost += res.cost;
    }
    const ExecutionProfileSnapshot snap = profile.Snapshot();

    const double n = static_cast<double>(rows);
    EXPECT_NEAR(total_cost / n, pe.expected_cost, 1e-9);
    for (size_t i = 0; i < pe.nodes.size(); ++i) {
      EXPECT_NEAR(static_cast<double>(snap.nodes[i].evals),
                  pe.nodes[i].reach * n, 1e-6)
          << "node " << i;
      if (pe.nodes[i].pass >= 0.0 && pe.nodes[i].reach > 0.0) {
        EXPECT_NEAR(static_cast<double>(snap.nodes[i].passes),
                    pe.nodes[i].reach * pe.nodes[i].pass * n, 1e-6)
            << "node " << i;
      }
    }
    for (size_t a = 0; a < tk.schema.num_attributes(); ++a) {
      EXPECT_NEAR(static_cast<double>(snap.attr_evals[a]),
                  pe.attr_eval_rate[a] * n, 1e-6)
          << "attr " << a;
      EXPECT_NEAR(static_cast<double>(snap.attr_passes[a]),
                  pe.attr_pass_rate[a] * n, 1e-6)
          << "attr " << a;
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases: zero-eval nodes, all-unknown verdicts, single-tuple plans
// ---------------------------------------------------------------------------

/// One split whose children are verdict leaves; every tuple we run routes to
/// the >= side, so the < child never evaluates.
CompiledPlan OneSplitPlan() {
  Plan plan(PlanNode::Split(0, 2, PlanNode::Verdict(false),
                            PlanNode::Verdict(true)));
  return CompiledPlan::Compile(plan);
}

TEST(CalibrationProfileTest, ZeroEvalNodesReportNoObservation) {
  const Schema schema = SmallSchema();
  const PerAttributeCostModel cm(schema);
  const CompiledPlan plan = OneSplitPlan();

  obs::CalibrationAggregator agg(1);
  ExecutionProfile* profile = agg.Profile(
      0, PlanKey{1, 0, 7},
      std::make_shared<const CompiledPlan>(OneSplitPlan()));
  for (int i = 0; i < 10; ++i) {
    const Tuple t = {3, 0, 0, 0};  // attr0 = 3 >= 2: always the ge child
    TupleSource source(t);
    ExecutePlan(plan, schema, cm, source, nullptr, {}, profile);
  }

  const obs::CalibrationReport report = agg.Snapshot();
  ASSERT_EQ(report.plans.size(), 1u);
  const obs::PlanCalibration& pc = report.plans[0];
  EXPECT_EQ(pc.executions, 10u);
  ASSERT_EQ(pc.nodes.size(), 3u);
  // Preorder: 0 = split (always evaluated, always passes), 1 = lt verdict
  // (never reached), 2 = ge verdict (always reached, verdict true = pass).
  EXPECT_EQ(pc.nodes[0].evals, 10u);
  EXPECT_EQ(pc.nodes[0].passes, 10u);
  EXPECT_EQ(pc.nodes[1].evals, 0u);
  EXPECT_FALSE(pc.nodes[1].has_observation());
  EXPECT_DOUBLE_EQ(pc.nodes[1].observed_pass(), 0.0);
  EXPECT_EQ(pc.nodes[2].evals, 10u);
  EXPECT_TRUE(pc.nodes[2].has_observation());
  EXPECT_DOUBLE_EQ(pc.nodes[2].observed_pass(), 1.0);
  // No estimates were attached, so the plan reports no regret and no drift.
  EXPECT_FALSE(pc.has_estimates);
  EXPECT_DOUBLE_EQ(pc.regret(), 0.0);
  EXPECT_DOUBLE_EQ(report.MaxDrift(), 0.0);
}

TEST(CalibrationProfileTest, AllUnknownVerdictsUnderTotalFaultInjection) {
  // Every acquisition fails: every execution degrades to Unknown, nodes
  // accumulate unknowns (not passes), no predicate is ever evaluated, and
  // the drift score stays zero -- fault storms must not masquerade as
  // distribution drift.
  Toolkit tk(41);
  const Query q = Query::Conjunction({Predicate(0, 1, 2), Predicate(2, 1, 3)});
  const CompiledPlan plan = tk.Compile(q);
  auto shared = std::make_shared<const CompiledPlan>(tk.Compile(q));

  FaultSpec spec;
  spec.transient = 1.0;
  const FaultInjector inj(spec);

  obs::CalibrationAggregator agg(1);
  ExecutionProfile* profile =
      agg.Profile(0, PlanKey{2, 0, 7}, shared);
  for (int i = 0; i < 25; ++i) {
    const Tuple t = tk.ds.GetTuple(static_cast<RowId>(i));
    TupleSource base(t);
    FaultyAcquisitionSource source(base, inj);
    source.SetRow(static_cast<RowId>(i));
    const ExecutionResult res =
        ExecutePlan(plan, tk.schema, tk.cm, source, nullptr, {}, profile);
    EXPECT_EQ(res.verdict3, Truth::kUnknown);
  }

  const obs::CalibrationReport report = agg.Snapshot();
  ASSERT_EQ(report.plans.size(), 1u);
  const obs::PlanCalibration& pc = report.plans[0];
  EXPECT_EQ(pc.executions, 25u);
  EXPECT_EQ(pc.unknown_executions, 25u);
  // The root is evaluated every time but never resolves.
  EXPECT_EQ(pc.nodes[0].evals, 25u);
  EXPECT_EQ(pc.nodes[0].unknowns, 25u);
  EXPECT_EQ(pc.nodes[0].passes, 0u);
  EXPECT_FALSE(pc.nodes[0].has_observation());
  for (const obs::AttrCalibration& ac : report.attrs) {
    EXPECT_EQ(ac.evals, 0u);  // no acquisition ever succeeded
  }
  EXPECT_DOUBLE_EQ(report.MaxDrift(), 0.0);
}

TEST(CalibrationProfileTest, SingleTuplePlanCounts) {
  // Minimal everything: a verdict-only plan executed once. Counters must be
  // exact and the report math must not divide by zero.
  const Schema schema = SmallSchema();
  const PerAttributeCostModel cm(schema);
  Plan plan(PlanNode::Verdict(true));
  const CompiledPlan compiled = CompiledPlan::Compile(plan);

  ExecutionProfile profile(compiled.NumNodes());
  const Tuple t = {0, 0, 0, 0};
  TupleSource source(t);
  const ExecutionResult res =
      ExecutePlan(compiled, schema, cm, source, nullptr, {}, &profile);
  EXPECT_TRUE(res.verdict);

  const ExecutionProfileSnapshot snap = profile.Snapshot();
  EXPECT_EQ(snap.executions, 1u);
  EXPECT_EQ(snap.unknown_executions, 0u);
  EXPECT_EQ(snap.acquisitions, 0u);
  EXPECT_DOUBLE_EQ(snap.realized_cost, 0.0);
  ASSERT_EQ(snap.nodes.size(), 1u);
  EXPECT_EQ(snap.nodes[0].evals, 1u);
  EXPECT_EQ(snap.nodes[0].passes, 1u);
}

TEST(CalibrationProfileTest, ProfileIgnoredWhenObsDisabled) {
  // The disabled path of both engines must not touch the profile at all
  // (this is what keeps bench_obs_overhead's <5% bar honest).
  const Schema schema = SmallSchema();
  const PerAttributeCostModel cm(schema);
  const CompiledPlan plan = OneSplitPlan();
  ExecutionProfile profile(plan.NumNodes());
  const Dataset data = CorrelatedDataset(schema, 64, /*seed=*/5);
  std::vector<RowId> rows(data.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;

  obs::SetEnabled(false);
  const Tuple t = {3, 0, 0, 0};
  TupleSource source(t);
  ExecutePlan(plan, schema, cm, source, nullptr, {}, &profile);
  BatchExecOptions batch_options;
  batch_options.profile = &profile;
  ColumnarBatchExecutor(plan, data, cm).Execute(rows, nullptr, batch_options);
  obs::SetEnabled(true);

  const ExecutionProfileSnapshot snap = profile.Snapshot();
  EXPECT_EQ(snap.executions, 0u);
  EXPECT_EQ(snap.acquisitions, 0u);
  EXPECT_EQ(snap.nodes[0].evals, 0u);
}

// ---------------------------------------------------------------------------
// Aggregator: merging, windowing, JSON
// ---------------------------------------------------------------------------

TEST(CalibrationAggregatorTest, MergesTheSameKeyAcrossShards) {
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  obs::CalibrationAggregator agg(2);
  const PlanKey key{9, 1, 7};
  ExecutionProfile* p0 = agg.Profile(0, key, shared);
  ExecutionProfile* p1 = agg.Profile(1, key, shared);
  ASSERT_NE(p0, p1);  // distinct shards, distinct profiles

  p0->NodeEval(0);
  p0->NodePass(0);
  p0->EndExecution(3.0, 1, false);
  p1->NodeEval(0);
  p1->NodeUnknown(0);
  p1->EndExecution(5.0, 2, true);

  const obs::CalibrationReport report = agg.Snapshot();
  ASSERT_EQ(report.plans.size(), 1u);
  const obs::PlanCalibration& pc = report.plans[0];
  EXPECT_EQ(pc.key.query_sig, 9u);
  EXPECT_EQ(pc.key.estimator_version, 1u);
  EXPECT_EQ(pc.executions, 2u);
  EXPECT_EQ(pc.unknown_executions, 1u);
  EXPECT_EQ(pc.acquisitions, 3u);
  EXPECT_DOUBLE_EQ(pc.realized_cost, 8.0);
  EXPECT_DOUBLE_EQ(pc.realized_mean_cost(), 4.0);
  EXPECT_EQ(pc.nodes[0].evals, 2u);
  EXPECT_EQ(pc.nodes[0].passes, 1u);
  EXPECT_EQ(pc.nodes[0].unknowns, 1u);
}

TEST(CalibrationAggregatorTest, DistinctKeysStayDistinct) {
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  obs::CalibrationAggregator agg(1);
  ExecutionProfile* v0 = agg.Profile(0, PlanKey{9, 0, 7}, shared);
  ExecutionProfile* v1 = agg.Profile(0, PlanKey{9, 1, 7}, shared);
  ASSERT_NE(v0, v1);  // version bump = new row
  // Same key resolves to the same stable profile.
  EXPECT_EQ(agg.Profile(0, PlanKey{9, 0, 7}, shared), v0);
  v0->EndExecution(1.0, 0, false);
  v1->EndExecution(2.0, 0, false);
  v1->EndExecution(2.0, 0, false);

  const obs::CalibrationReport report = agg.Snapshot();
  ASSERT_EQ(report.plans.size(), 2u);
  // Snapshot orders rows by (sig, version, fingerprint).
  EXPECT_EQ(report.plans[0].key.estimator_version, 0u);
  EXPECT_EQ(report.plans[0].executions, 1u);
  EXPECT_EQ(report.plans[1].key.estimator_version, 1u);
  EXPECT_EQ(report.plans[1].executions, 2u);
  EXPECT_EQ(report.executions, 3u);
}

TEST(CalibrationAggregatorTest, DeltaSinceYieldsTheWindow) {
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  obs::CalibrationAggregator agg(1);
  ExecutionProfile* p = agg.Profile(0, PlanKey{5, 0, 7}, shared);

  p->NodeEval(0);
  p->NodePass(0);
  p->PredEval(0, true);
  p->EndExecution(2.0, 1, false);
  const obs::CalibrationReport first = agg.Snapshot();

  p->NodeEval(0);
  p->PredEval(0, false);
  p->EndExecution(6.0, 1, false);
  p->NodeEval(0);
  p->PredEval(0, false);
  p->EndExecution(6.0, 1, false);
  const obs::CalibrationReport second = agg.Snapshot();

  const obs::CalibrationReport window = second.DeltaSince(first);
  ASSERT_EQ(window.plans.size(), 1u);
  EXPECT_EQ(window.plans[0].executions, 2u);
  EXPECT_DOUBLE_EQ(window.plans[0].realized_cost, 12.0);
  EXPECT_EQ(window.plans[0].nodes[0].evals, 2u);
  EXPECT_EQ(window.plans[0].nodes[0].passes, 0u);
  ASSERT_EQ(window.attrs.size(), 1u);
  EXPECT_EQ(window.attrs[0].evals, 2u);
  EXPECT_EQ(window.attrs[0].passes, 0u);

  // An idle window drops the plan entirely.
  const obs::CalibrationReport idle = second.DeltaSince(second);
  EXPECT_TRUE(idle.plans.empty());
  EXPECT_EQ(idle.executions, 0u);
}

TEST(CalibrationAggregatorTest, DeltaSinceEmptyBaselineIsCumulative) {
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  obs::CalibrationAggregator agg(1);
  ExecutionProfile* p = agg.Profile(0, PlanKey{5, 0, 7}, shared);
  p->NodeEval(0);
  p->NodePass(0);
  p->PredEval(0, true);
  p->EndExecution(2.0, 1, false);

  // The very first window has an empty (default) baseline: the delta must
  // reproduce the cumulative report, not drop everything.
  const obs::CalibrationReport cumulative = agg.Snapshot();
  const obs::CalibrationReport window =
      cumulative.DeltaSince(obs::CalibrationReport{});
  ASSERT_EQ(window.plans.size(), 1u);
  EXPECT_EQ(window.plans[0].executions, cumulative.plans[0].executions);
  EXPECT_DOUBLE_EQ(window.realized_cost, cumulative.realized_cost);
  ASSERT_EQ(window.attrs.size(), 1u);
  EXPECT_EQ(window.attrs[0].evals, cumulative.attrs[0].evals);

  // Both sides empty: the delta is empty, not a crash or a phantom row.
  const obs::CalibrationReport nothing =
      obs::CalibrationReport{}.DeltaSince(obs::CalibrationReport{});
  EXPECT_TRUE(nothing.plans.empty());
  EXPECT_TRUE(nothing.attrs.empty());
  EXPECT_EQ(nothing.executions, 0u);
}

TEST(CalibrationAggregatorTest, DeltaSinceKeepsVersionBumpMidWindow) {
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  obs::CalibrationAggregator agg(1);
  ExecutionProfile* v0 = agg.Profile(0, PlanKey{5, 0, 7}, shared);
  v0->PredEval(0, true);
  v0->EndExecution(2.0, 1, false);
  const obs::CalibrationReport first = agg.Snapshot();

  // Mid-window the estimator version bumps: the old plan drains its last
  // requests while the replanned generation starts. Both keys are active
  // in the same window.
  v0->PredEval(0, false);
  v0->EndExecution(4.0, 1, false);
  ExecutionProfile* v1 = agg.Profile(0, PlanKey{5, 1, 7}, shared);
  v1->PredEval(0, true);
  v1->PredEval(0, true);
  v1->EndExecution(3.0, 1, false);
  v1->EndExecution(3.0, 1, false);
  const obs::CalibrationReport window = agg.Snapshot().DeltaSince(first);

  // Two rows, joinable by version; each carries only its window activity.
  ASSERT_EQ(window.plans.size(), 2u);
  EXPECT_EQ(window.plans[0].key.estimator_version, 0u);
  EXPECT_EQ(window.plans[0].executions, 1u);  // 2 cumulative - 1 baseline
  EXPECT_DOUBLE_EQ(window.plans[0].realized_cost, 4.0);
  EXPECT_EQ(window.plans[1].key.estimator_version, 1u);
  EXPECT_EQ(window.plans[1].executions, 2u);  // no baseline to subtract
  EXPECT_DOUBLE_EQ(window.plans[1].realized_cost, 6.0);
  EXPECT_EQ(window.executions, 3u);
  // The attribute row pools predicate evaluations across both generations.
  ASSERT_EQ(window.attrs.size(), 1u);
  EXPECT_EQ(window.attrs[0].evals, 3u);
  EXPECT_EQ(window.attrs[0].passes, 2u);
}

TEST(CalibrationAggregatorTest, CostBoundsSurfaceInJsonOnlyWhenStamped) {
  obs::CalibrationReport report;
  obs::PlanCalibration pc;
  pc.key = PlanKey{1, 0, 2};
  pc.executions = 1;
  pc.has_estimates = true;
  pc.predicted_cost = 5.0;
  pc.realized_cost = 5.0;
  pc.has_cost_bounds = true;
  pc.predicted_cost_lo = 4.0;
  pc.predicted_cost_hi = 9.0;
  report.plans.push_back(pc);
  report.executions = 1;

  const std::string json = obs::CalibrationReportToJson(report);
  EXPECT_NE(json.find("\"predicted_cost_lo\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_cost_hi\""), std::string::npos);
  // Point plans omit the interval fields entirely.
  report.plans[0].has_cost_bounds = false;
  EXPECT_EQ(obs::CalibrationReportToJson(report).find("predicted_cost_lo"),
            std::string::npos);
}

TEST(CalibrationAggregatorTest, SignedDriftCarriesDirection) {
  obs::AttrCalibration up;
  up.evals = 100;
  up.passes = 80;
  up.predicted_evals = 100.0;
  up.predicted_passes = 50.0;
  EXPECT_NEAR(up.signed_drift(), 0.3, 1e-12);  // observed 0.8 > predicted 0.5
  EXPECT_NEAR(up.drift(), 0.3, 1e-12);

  obs::AttrCalibration down;
  down.evals = 100;
  down.passes = 20;
  down.predicted_evals = 100.0;
  down.predicted_passes = 60.0;
  EXPECT_NEAR(down.signed_drift(), -0.4, 1e-12);
  EXPECT_NEAR(down.drift(), 0.4, 1e-12);  // drift() is the magnitude

  // No observations, or no predicted side: no drift either way.
  obs::AttrCalibration unseen;
  EXPECT_DOUBLE_EQ(unseen.signed_drift(), 0.0);
  obs::AttrCalibration unpredicted;
  unpredicted.evals = 10;
  unpredicted.passes = 5;
  EXPECT_DOUBLE_EQ(unpredicted.signed_drift(), 0.0);
  EXPECT_DOUBLE_EQ(unpredicted.drift(), 0.0);
}

TEST(CalibrationAggregatorTest, ReportSerializesToJson) {
  const Schema schema = SmallSchema();
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  obs::CalibrationAggregator agg(1);
  ExecutionProfile* p = agg.Profile(
      0,
      PlanKey{/*query_sig=*/5, /*estimator_version=*/3,
              /*planner_fingerprint=*/7},
      shared);
  p->NodeEval(0);
  p->NodePass(0);
  p->PredEval(0, true);
  p->EndExecution(2.0, 1, false);

  const std::string json =
      obs::CalibrationReportToJson(agg.Snapshot(), &schema);
  EXPECT_NE(json.find("\"executions\":1"), std::string::npos);
  EXPECT_NE(json.find("\"plans\""), std::string::npos);
  EXPECT_NE(json.find("\"attrs\""), std::string::npos);
  EXPECT_NE(json.find("\"max_drift\""), std::string::npos);
  EXPECT_NE(json.find("\"regret\""), std::string::npos);
  EXPECT_NE(json.find("\"cheap0\""), std::string::npos);  // schema names
  // The plan's key under the calibration JSON's names and order.
  EXPECT_NE(json.find("\"query_sig\":5,\"estimator_version\":3,"
                      "\"planner_fingerprint\":7"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan target: scripts/check.sh runs ^Calibration suites)
// ---------------------------------------------------------------------------

TEST(CalibrationAggregatorTest, ConcurrentProfilesAndSnapshots) {
  const Schema schema = SmallSchema();
  const PerAttributeCostModel cm(schema);
  auto shared = std::make_shared<const CompiledPlan>(OneSplitPlan());
  const size_t kWorkers = 4;
  const int kPerWorker = 2000;
  obs::CalibrationAggregator agg(kWorkers);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    // Hammer Snapshot concurrently with the writers: must be TSan-clean
    // and never observe impossible totals.
    while (!stop.load(std::memory_order_acquire)) {
      const obs::CalibrationReport r = agg.Snapshot();
      EXPECT_LE(r.executions,
                static_cast<uint64_t>(kWorkers) * kPerWorker * 2);
    }
  });

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerWorker; ++i) {
        // Two interleaved keys per worker exercise map resolution under
        // concurrent Snapshot.
        const PlanKey key{static_cast<uint64_t>(i % 2), 0, 7};
        ExecutionProfile* p = agg.Profile(w, key, shared);
        const CompiledPlan& plan = *shared;
        const Tuple t = {static_cast<Value>(i % 4), 0, 0, 0};
        TupleSource source(t);
        ExecutePlan(plan, schema, cm, source, nullptr, {}, p);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  const obs::CalibrationReport final_report = agg.Snapshot();
  ASSERT_EQ(final_report.plans.size(), 2u);
  uint64_t total = 0;
  for (const obs::PlanCalibration& pc : final_report.plans) {
    total += pc.executions;
    EXPECT_EQ(pc.nodes[0].evals, pc.executions);  // root evaluates every run
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kWorkers) * kPerWorker);
}

}  // namespace
}  // namespace caqp
