// Tests for plan verification and the EXPLAIN printer.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/optseq.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "plan/plan_verify.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

TEST(PlanVerifyTest, CorrectPlanPassesExhaustiveCheck) {
  const Schema schema = SmallSchema();
  const Query q = Query::Conjunction({Predicate(0, 1, 2), Predicate(2, 0, 1)});
  const CompiledPlan plan = CompiledPlan::Compile(
      *PlanNode::Sequential({Predicate(0, 1, 2), Predicate(2, 0, 1)}));
  const auto res = VerifyPlanExhaustive(plan, q, schema);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.tuples_checked, 4u * 6 * 4 * 5);  // full domain product
  EXPECT_FALSE(res.counterexample.has_value());
}

TEST(PlanVerifyTest, WrongPlanYieldsCounterexample) {
  const Schema schema = SmallSchema();
  const Query q = Query::Conjunction({Predicate(0, 1, 2)});
  const CompiledPlan always_true =
      CompiledPlan::Compile(*PlanNode::Verdict(true));
  const auto res = VerifyPlanExhaustive(always_true, q, schema);
  ASSERT_FALSE(res.correct);
  ASSERT_TRUE(res.counterexample.has_value());
  // The witness is the first tuple in odometer order that the plan gets
  // wrong, and it really is a disagreement.
  EXPECT_EQ(*res.counterexample, (Tuple{0, 0, 0, 0}));
  EXPECT_EQ(res.tuples_checked, 1u);
  PerAttributeCostModel cm(schema);
  TupleSource source(*res.counterexample);
  EXPECT_NE(ExecutePlan(always_true, schema, cm, source).verdict,
            q.Matches(*res.counterexample));
}

TEST(PlanVerifyTest, VerificationCountsNothing) {
  // The verifiers run the executing walk uninstrumented: a whole-domain
  // check leaves the exec.* counters where they were.
  const Schema schema = SmallSchema();
  const Query q = Query::Conjunction({Predicate(0, 1, 2), Predicate(2, 0, 1)});
  const CompiledPlan plan = CompiledPlan::Compile(
      *PlanNode::Sequential({Predicate(0, 1, 2), Predicate(2, 0, 1)}));
  ASSERT_TRUE(obs::Enabled());
  const obs::Counter& tuples = obs::DefaultRegistry().GetCounter("exec.tuples");
  const obs::Counter& acquisitions =
      obs::DefaultRegistry().GetCounter("exec.acquisitions");
  const uint64_t tuples_before = tuples.value();
  const uint64_t acquisitions_before = acquisitions.value();
  EXPECT_TRUE(VerifyPlanExhaustive(plan, q, schema).correct);
  EXPECT_TRUE(VerifyPlanSampled(plan, q, schema, 500, 2).correct);
  EXPECT_EQ(tuples.value(), tuples_before);
  EXPECT_EQ(acquisitions.value(), acquisitions_before);
}

TEST(PlanVerifyTest, SampledFindsGrossErrors) {
  const Schema schema = SmallSchema();
  const Query q = Query::Conjunction({Predicate(0, 0, 0)});  // rarely true
  const CompiledPlan always_true =
      CompiledPlan::Compile(*PlanNode::Verdict(true));
  const auto res = VerifyPlanSampled(always_true, q, schema, 500, 3);
  EXPECT_FALSE(res.correct);
}

TEST(PlanVerifyTest, SampledPassesCorrectPlan) {
  const Schema schema = SmallSchema();
  const Query q = Query::Conjunction({Predicate(3, 1, 3)});
  const CompiledPlan plan =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(3, 1, 3)}));
  const auto res = VerifyPlanSampled(plan, q, schema, 2000, 4);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.tuples_checked, 2000u);
}

TEST(PlanVerifyTest, PlannerOutputAlwaysVerifies) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 400, 71);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &optseq;
  opts.max_splits = 6;
  GreedyPlanner planner(est, cm, opts);
  Rng rng(72);
  for (int i = 0; i < 10; ++i) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
    EXPECT_TRUE(PlanIsWellFormed(plan, schema));
    EXPECT_TRUE(VerifyPlanExhaustive(plan, q, schema).correct);
  }
}

TEST(PlanWellFormedTest, RejectsBadSplitValue) {
  const Schema schema = SmallSchema();
  const CompiledPlan p = CompiledPlan::Compile(*PlanNode::Split(
      0, 3, PlanNode::Verdict(false), PlanNode::Verdict(true)));
  EXPECT_TRUE(PlanIsWellFormed(p, schema));  // 3 < domain 4: fine
  Schema binary;
  binary.AddAttribute("b", 2, 1.0);
  EXPECT_FALSE(PlanIsWellFormed(p, binary));  // attr 0 domain 2, split 3
}

TEST(PlanWellFormedTest, RejectsOutOfSchemaSequential) {
  Schema binary;
  binary.AddAttribute("b", 2, 1.0);
  const CompiledPlan p =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(1, 0, 1)}));
  EXPECT_FALSE(PlanIsWellFormed(p, binary));
}

TEST(PlanWellFormedTest, GenericMustCoverReferencedAttrs) {
  const Schema schema = SmallSchema();
  Query q = Query::Disjunction({{Predicate(0, 1, 1)}, {Predicate(2, 0, 0)}});
  const CompiledPlan covered =
      CompiledPlan::Compile(*PlanNode::Generic(q, {0, 2}));
  EXPECT_TRUE(PlanIsWellFormed(covered, schema));
  const CompiledPlan uncovered =
      CompiledPlan::Compile(*PlanNode::Generic(q, {0}));
  EXPECT_FALSE(PlanIsWellFormed(uncovered, schema));
}

TEST(ExplainPlanTest, AnnotationsAreConsistent) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 600, 73, 0.2);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &optseq;
  opts.max_splits = 4;
  GreedyPlanner planner(est, cm, opts);
  const Query q =
      Query::Conjunction({Predicate(2, 2, 3), Predicate(3, 1, 3)});
  const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
  const std::string text = ExplainPlan(plan, est, cm);
  // Root reach is 1.000 and the root cost annotation matches Eq. (3).
  EXPECT_NE(text.find("reach=1.000"), std::string::npos);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "cost=%.2f",
                ExpectedPlanCost(plan, est, cm));
  EXPECT_NE(text.find(expected), std::string::npos) << text;
}

TEST(ExpectedSubplanCostTest, RootEqualsFullPlanCost) {
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 300, 74);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      *PlanNode::Sequential({Predicate(2, 1, 2), Predicate(0, 0, 1)}));
  EXPECT_DOUBLE_EQ(
      ExpectedSubplanCost(plan, 0, schema.FullRanges(), est, cm),
      ExpectedPlanCost(plan, est, cm));
}

}  // namespace
}  // namespace caqp
