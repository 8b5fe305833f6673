// Executor and cost model tests: lazy acquisition, single-charge semantics,
// acquisition ordering, and the sensor-board cost model.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "obs/trace.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::SmallSchema;

/// Source that records the order in which attributes are acquired.
class RecordingSource : public AcquisitionSource {
 public:
  explicit RecordingSource(const Tuple& t) : tuple_(t) {}
  AcquiredValue Acquire(AttrId attr) override {
    order_.push_back(attr);
    return tuple_[attr];
  }
  const std::vector<AttrId>& order() const { return order_; }

 private:
  Tuple tuple_;
  std::vector<AttrId> order_;
};

TEST(ExecutorTest, SequentialLeafAcquiresInOrderAndShortCircuits) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(Plan(PlanNode::Sequential(
      {Predicate(1, 0, 2), Predicate(3, 4, 4), Predicate(2, 0, 0)})));
  // Tuple fails the second predicate: third never acquired.
  Tuple t = {0, 1, 3, 0};
  RecordingSource src(t);
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_FALSE(res.verdict);
  EXPECT_EQ(src.order(), (std::vector<AttrId>{1, 3}));
  EXPECT_DOUBLE_EQ(res.cost, schema.cost(1) + schema.cost(3));
  EXPECT_EQ(res.acquisitions, 2);
  EXPECT_TRUE(res.acquired.Contains(1));
  EXPECT_TRUE(res.acquired.Contains(3));
  EXPECT_FALSE(res.acquired.Contains(2));
}

TEST(ExecutorTest, SplitPathChargesOncePerAttribute) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Split twice on attr 0 then test a predicate on attr 0: one charge.
  auto leaf = PlanNode::Sequential({Predicate(0, 2, 2)});
  auto inner = PlanNode::Split(0, 3, std::move(leaf), PlanNode::Verdict(false));
  auto root = PlanNode::Split(0, 1, PlanNode::Verdict(false), std::move(inner));
  const CompiledPlan plan = CompiledPlan::Compile(Plan(std::move(root)));
  Tuple t = {2, 0, 0, 0};
  RecordingSource src(t);
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_TRUE(res.verdict);
  EXPECT_EQ(res.acquisitions, 1);
  EXPECT_DOUBLE_EQ(res.cost, schema.cost(0));
  EXPECT_EQ(src.order().size(), 1u);  // source consulted exactly once
}

TEST(ExecutorTest, VerdictLeafAcquiresNothing) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Verdict(true)));
  Tuple t = {0, 0, 0, 0};
  RecordingSource src(t);
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_TRUE(res.verdict);
  EXPECT_EQ(res.acquisitions, 0);
  EXPECT_DOUBLE_EQ(res.cost, 0.0);
}

TEST(ExecutorTest, GenericLeafStopsWhenResolved) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Query q = Query::Disjunction({{Predicate(0, 3, 3)}, {Predicate(3, 0, 0)}});
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Generic(q, {0, 3})));
  // attr0 == 3 resolves the query; attr3 must not be acquired.
  Tuple t = {3, 0, 0, 4};
  RecordingSource src(t);
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_TRUE(res.verdict);
  EXPECT_EQ(src.order(), (std::vector<AttrId>{0}));
}

TEST(ExecutorTest, GenericLeafReusesSplitPathValues) {
  // A split acquires attr 0; the generic leaf references it and must reuse
  // the acquired value instead of paying again.
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Query q = Query::Disjunction({{Predicate(0, 3, 3)}, {Predicate(3, 4, 4)}});
  auto leaf = PlanNode::Generic(q, {0, 3});
  auto root =
      PlanNode::Split(0, 2, PlanNode::Verdict(false), std::move(leaf));
  const CompiledPlan plan = CompiledPlan::Compile(Plan(std::move(root)));
  // attr0 == 3: the split sends us to the leaf, where the first disjunct is
  // already satisfied by the split-path value. attr3 never acquired.
  Tuple t = {3, 0, 0, 0};
  RecordingSource src(t);
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_TRUE(res.verdict);
  EXPECT_EQ(src.order(), (std::vector<AttrId>{0}));
  EXPECT_DOUBLE_EQ(res.cost, schema.cost(0));
}

TEST(ExecutorTest, TupleSourceReadsValues) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(2, 1, 3)})));
  Tuple t = {0, 0, 2, 0};
  TupleSource src(t);
  EXPECT_TRUE(ExecutePlan(plan, schema, cm, src).verdict);
  Tuple t2 = {0, 0, 0, 0};
  TupleSource src2(t2);
  EXPECT_FALSE(ExecutePlan(plan, schema, cm, src2).verdict);
}

TEST(SensorBoardCostModelTest, PowerUpChargedOncePerBoard) {
  const Schema schema = SmallSchema();
  // Attrs 2 and 3 share board 0 (power-up 40); attr 1 on board 1 (power 5).
  SensorBoardCostModel cm(schema, {-1, 1, 0, 0}, {40.0, 5.0});
  AttrSet none;
  EXPECT_DOUBLE_EQ(cm.Cost(0, none), schema.cost(0));        // no board
  EXPECT_DOUBLE_EQ(cm.Cost(2, none), schema.cost(2) + 40.0); // powers board
  AttrSet with2;
  with2.Insert(2);
  EXPECT_DOUBLE_EQ(cm.Cost(3, with2), schema.cost(3));  // board already hot
  EXPECT_DOUBLE_EQ(cm.Cost(1, with2), schema.cost(1) + 5.0);
}

TEST(SensorBoardCostModelTest, ExecutorIntegration) {
  const Schema schema = SmallSchema();
  SensorBoardCostModel cm(schema, {-1, -1, 0, 0}, {40.0});
  // Sequential plan touching both board attrs: power-up charged once.
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(2, 0, 3), Predicate(3, 0, 4)})));
  Tuple t = {0, 0, 1, 1};
  TupleSource src(t);
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_DOUBLE_EQ(res.cost, schema.cost(2) + 40.0 + schema.cost(3));
}

TEST(AttrSetTest, BasicOperations) {
  AttrSet s;
  EXPECT_EQ(s.Count(), 0);
  s.Insert(5);
  s.Insert(63);
  EXPECT_TRUE(s.Contains(5));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_FALSE(s.Contains(6));
  EXPECT_EQ(s.Count(), 2);
  s.Remove(5);
  EXPECT_FALSE(s.Contains(5));
  AttrSet o;
  o.Insert(1);
  EXPECT_EQ(s.Union(o).Count(), 2);
}

TEST(ExecutorTraceTest, AcquisitionOrderMatchesPlanTraversal) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Split on attr 0, then a sequential leaf over attrs 1, 3 on the >= side.
  auto leaf = PlanNode::Sequential({Predicate(1, 0, 5), Predicate(3, 0, 4)});
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Split(0, 2, PlanNode::Verdict(false), std::move(leaf))));
  Tuple t = {3, 1, 0, 2};
  RecordingSource src(t);
  ExecutionTrace trace;
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src, &trace);

  // Trace order must match the source's observed acquisition order exactly.
  ASSERT_EQ(trace.acquisitions().size(), src.order().size());
  for (size_t i = 0; i < src.order().size(); ++i) {
    EXPECT_EQ(trace.acquisitions()[i].attr, src.order()[i]);
  }
  EXPECT_EQ(src.order(), (std::vector<AttrId>{0, 1, 3}));
  // Branch path: one split, taken on the >= side.
  ASSERT_EQ(trace.branches().size(), 1u);
  EXPECT_EQ(trace.branches()[0].attr, 0);
  EXPECT_EQ(trace.branches()[0].split_value, 2);
  EXPECT_TRUE(trace.branches()[0].went_ge);
  // Verdict event carries the final outcome and total cost.
  EXPECT_EQ(trace.verdicts(), 1u);
  EXPECT_EQ(trace.verdict(), res.verdict);
  EXPECT_DOUBLE_EQ(trace.total_cost(), res.cost);
}

TEST(ExecutorTraceTest, AcquiredSetConsistentWithAcquisitionCount) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  auto leaf = PlanNode::Sequential({Predicate(2, 0, 3), Predicate(1, 0, 5)});
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Split(0, 2, std::move(leaf), PlanNode::Verdict(true))));
  Tuple t = {0, 2, 1, 4};
  RecordingSource src(t);
  ExecutionTrace trace;
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src, &trace);

  EXPECT_EQ(static_cast<size_t>(res.acquisitions),
            trace.acquisitions().size());
  EXPECT_EQ(static_cast<size_t>(res.acquired.Count()),
            trace.acquisitions().size());
  for (const TraceAcquisition& a : trace.acquisitions()) {
    EXPECT_TRUE(res.acquired.Contains(a.attr));
    EXPECT_EQ(a.value, t[a.attr]);
  }
}

TEST(ExecutorTraceTest, CostChargedOncePerAttribute) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Attr 0 appears in two splits and a predicate; trace must show exactly
  // one acquisition event for it, carrying the full marginal cost.
  auto leaf = PlanNode::Sequential({Predicate(0, 2, 2)});
  auto inner = PlanNode::Split(0, 3, std::move(leaf), PlanNode::Verdict(false));
  const CompiledPlan plan = CompiledPlan::Compile(Plan(
      PlanNode::Split(0, 1, PlanNode::Verdict(false), std::move(inner))));
  Tuple t = {2, 0, 0, 0};
  RecordingSource src(t);
  ExecutionTrace trace;
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src, &trace);

  ASSERT_EQ(trace.acquisitions().size(), 1u);
  EXPECT_EQ(trace.acquisitions()[0].attr, 0);
  EXPECT_DOUBLE_EQ(trace.acquisitions()[0].cost, schema.cost(0));
  // Summing trace marginal costs reproduces the executor's total charge.
  double traced_cost = 0.0;
  for (const TraceAcquisition& a : trace.acquisitions()) {
    traced_cost += a.cost;
  }
  EXPECT_DOUBLE_EQ(traced_cost, res.cost);
  // Both splits were still routed (and recorded) even though the attribute
  // was acquired once.
  EXPECT_EQ(trace.branches().size(), 2u);
}

TEST(ExecutorTraceTest, NullSinkMatchesTracedExecution) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  auto leaf = PlanNode::Sequential({Predicate(1, 0, 2), Predicate(3, 0, 2)});
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Split(0, 2, std::move(leaf), PlanNode::Verdict(false))));
  Tuple t = {1, 1, 0, 1};
  RecordingSource s1(t);
  const ExecutionResult untraced = ExecutePlan(plan, schema, cm, s1);
  RecordingSource s2(t);
  ExecutionTrace trace;
  const ExecutionResult traced = ExecutePlan(plan, schema, cm, s2, &trace);
  EXPECT_EQ(untraced.verdict, traced.verdict);
  EXPECT_DOUBLE_EQ(untraced.cost, traced.cost);
  EXPECT_EQ(untraced.acquisitions, traced.acquisitions);
  EXPECT_EQ(s1.order(), s2.order());
}

}  // namespace
}  // namespace caqp
