// Plan costing tests. The central invariant (paper Equations (3) and (4)):
// the analytic expected cost of any split/sequential plan under a
// DatasetEstimator equals the empirical mean execution cost over that same
// dataset, exactly.

#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "obs/trace.h"
#include "opt/cost_model.h"
#include "plan/plan_cost.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::RandomConjunctiveQuery;
using testing_util::SmallSchema;
using testing_util::UniformDataset;

/// Builds a random split/sequential plan that correctly decides `query`.
/// Structure: a few random splits, then sequential leaves over whatever
/// predicates the path has not determined.
std::unique_ptr<PlanNode> RandomCorrectPlan(const Schema& schema,
                                            const Query& query,
                                            const RangeVec& ranges, Rng& rng,
                                            int depth) {
  const Truth t = query.EvaluateOnRanges(ranges);
  if (t != Truth::kUnknown) return PlanNode::Verdict(t == Truth::kTrue);
  if (depth <= 0 || rng.Bernoulli(0.4)) {
    return PlanNode::Sequential(
        UndeterminedPredicates(query.predicates(), ranges));
  }
  // Random splittable attribute.
  std::vector<AttrId> splittable;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (ranges[a].Width() > 1) splittable.push_back(static_cast<AttrId>(a));
  }
  if (splittable.empty()) {
    return PlanNode::Sequential(
        UndeterminedPredicates(query.predicates(), ranges));
  }
  const AttrId attr = splittable[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(splittable.size()) - 1))];
  const ValueRange r = ranges[attr];
  const Value x = static_cast<Value>(rng.UniformInt(r.lo + 1, r.hi));
  auto lt = RandomCorrectPlan(
      schema, query,
      Refined(ranges, attr, ValueRange{r.lo, static_cast<Value>(x - 1)}), rng,
      depth - 1);
  auto ge = RandomCorrectPlan(schema, query,
                              Refined(ranges, attr, ValueRange{x, r.hi}), rng,
                              depth - 1);
  return PlanNode::Split(attr, x, std::move(lt), std::move(ge));
}

class ExpectedEqualsEmpiricalTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpectedEqualsEmpiricalTest, Identity) {
  Rng rng(GetParam());
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 400, GetParam() * 31 + 1);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  for (int iter = 0; iter < 10; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    Plan plan(RandomCorrectPlan(schema, q, schema.FullRanges(), rng, 3));
    const double analytic = ExpectedPlanCost(plan, est, cm);
    const EmpiricalCostResult emp = EmpiricalPlanCost(plan, ds, q, cm);
    ASSERT_NEAR(analytic, emp.mean_cost, 1e-9)
        << "query " << q.ToString(schema);
    EXPECT_EQ(emp.verdict_errors, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpectedEqualsEmpiricalTest,
                         ::testing::Range(1, 13));

TEST(ExpectedEqualsEmpiricalBoardTest, HoldsUnderSensorBoardCosts) {
  Rng rng(7);
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 300, 77);
  DatasetEstimator est(ds);
  // Attributes 2 and 3 share a board with power-up cost 25.
  SensorBoardCostModel cm(schema, {-1, -1, 0, 0}, {25.0});
  for (int iter = 0; iter < 10; ++iter) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    Plan plan(RandomCorrectPlan(schema, q, schema.FullRanges(), rng, 3));
    const double analytic = ExpectedPlanCost(plan, est, cm);
    const EmpiricalCostResult emp = EmpiricalPlanCost(plan, ds, q, cm);
    ASSERT_NEAR(analytic, emp.mean_cost, 1e-9);
  }
}

TEST(EmpiricalCostTest, ChargesEachAttributeOncePerTuple) {
  const Schema schema = SmallSchema();
  // Split twice on the same attribute: the second test must be free.
  auto inner = PlanNode::Split(0, 2, PlanNode::Verdict(false),
                               PlanNode::Verdict(true));
  auto root = PlanNode::Split(0, 1, PlanNode::Verdict(false),
                              std::move(inner));
  Plan plan(std::move(root));
  Dataset ds(schema);
  ds.Append({3, 0, 0, 0});
  PerAttributeCostModel cm(schema);
  const Query q = Query::Conjunction({Predicate(0, 2, 3)});
  const EmpiricalCostResult res = EmpiricalPlanCost(plan, ds, q, cm);
  EXPECT_DOUBLE_EQ(res.mean_cost, schema.cost(0));
  EXPECT_DOUBLE_EQ(res.mean_acquisitions, 1.0);
}

TEST(EmpiricalCostTest, SequentialShortCircuits) {
  const Schema schema = SmallSchema();
  // cheap0 (cost 1) first, exp1 (cost 80) second.
  Plan plan(PlanNode::Sequential({Predicate(0, 3, 3), Predicate(3, 0, 0)}));
  Dataset ds(schema);
  ds.Append({0, 0, 0, 0});  // fails first predicate: cost 1
  ds.Append({3, 0, 0, 0});  // passes first, evaluates second: cost 81
  PerAttributeCostModel cm(schema);
  const Query q =
      Query::Conjunction({Predicate(0, 3, 3), Predicate(3, 0, 0)});
  const EmpiricalCostResult res = EmpiricalPlanCost(plan, ds, q, cm);
  EXPECT_DOUBLE_EQ(res.total_cost, 1.0 + 81.0);
  EXPECT_EQ(res.verdict_errors, 0u);
}

TEST(EmpiricalCostTest, DetectsWrongVerdicts) {
  const Schema schema = SmallSchema();
  Plan always_true(PlanNode::Verdict(true));
  Dataset ds(schema);
  ds.Append({0, 0, 0, 0});
  ds.Append({1, 0, 0, 0});
  const Query q = Query::Conjunction({Predicate(0, 1, 1)});
  PerAttributeCostModel cm(schema);
  const EmpiricalCostResult res = EmpiricalPlanCost(always_true, ds, q, cm);
  EXPECT_EQ(res.verdict_errors, 1u);  // tuple {0,...} should fail
}

/// One TraceSink event, kept verbatim; costs compare bit for bit.
struct TraceEvent {
  enum class Kind { kAcquire, kBranch, kVerdict };
  Kind kind = Kind::kVerdict;
  AttrId attr = kInvalidAttr;
  Value value = 0;    ///< acquired value, or split value
  bool flag = false;  ///< went_ge, or verdict
  double cost = 0.0;  ///< marginal cost, or total cost

  bool operator==(const TraceEvent& o) const {
    return kind == o.kind && attr == o.attr && value == o.value &&
           flag == o.flag &&
           std::bit_cast<uint64_t>(cost) == std::bit_cast<uint64_t>(o.cost);
  }
};

class RecordingSink : public TraceSink {
 public:
  void OnAcquire(AttrId attr, Value value, double marginal_cost) override {
    events.push_back(
        {TraceEvent::Kind::kAcquire, attr, value, false, marginal_cost});
  }
  void OnBranch(AttrId attr, Value split_value, bool went_ge) override {
    events.push_back(
        {TraceEvent::Kind::kBranch, attr, split_value, went_ge, 0.0});
  }
  void OnVerdict(bool verdict, double total_cost) override {
    events.push_back(
        {TraceEvent::Kind::kVerdict, kInvalidAttr, 0, verdict, total_cost});
  }

  std::vector<TraceEvent> events;
};

TEST(EmpiricalCostTraceTest, EmitsPerRowExecutionEventsAndSumsVerdictCosts) {
  Rng rng(29);
  const Schema schema = SmallSchema();
  const Dataset ds = CorrelatedDataset(schema, 200, 41);
  std::vector<std::pair<Query, CompiledPlan>> plans;
  for (int i = 0; i < 6; ++i) {
    const Query q = RandomConjunctiveQuery(schema, rng);
    plans.emplace_back(q, CompiledPlan::Compile(*RandomCorrectPlan(
                              schema, q, schema.FullRanges(), rng, 3)));
  }
  // A generic leaf below a split: its residual query reuses the split's
  // acquired attribute before acquiring more.
  const Query dnf = Query::Disjunction(
      {{Predicate(0, 2, 3)}, {Predicate(2, 0, 1), Predicate(3, 1, 3)}});
  plans.emplace_back(
      dnf, CompiledPlan::Compile(*PlanNode::Split(
               0, 2, PlanNode::Generic(dnf, {2, 3}), PlanNode::Verdict(true))));

  PerAttributeCostModel per_attribute(schema);
  // Attributes 2 and 3 share a board: marginals depend on what was acquired.
  SensorBoardCostModel board(schema, {-1, -1, 0, 0}, {25.0});
  const std::vector<const AcquisitionCostModel*> cost_models = {
      &per_attribute, &board};
  for (const AcquisitionCostModel* cm : cost_models) {
    for (const auto& [query, plan] : plans) {
      SCOPED_TRACE(query.ToString(schema));
      RecordingSink all;
      const EmpiricalCostResult res =
          EmpiricalPlanCost(plan, ds, query, *cm, &all);
      EXPECT_EQ(res.verdict_errors, 0u);

      // Row by row, the stream is exactly what ExecutePlan emits for the
      // row: each row's events end at its verdict, so comparing the
      // concatenations compares every row.
      RecordingSink per_row;
      for (RowId r = 0; r < ds.num_rows(); ++r) {
        const Tuple t = ds.GetTuple(r);
        TupleSource src(t);
        (void)ExecutePlan(plan, schema, *cm, src, &per_row);
      }
      EXPECT_TRUE(all.events == per_row.events);

      // total_cost is the in-order sum of the OnVerdict costs, bit for bit.
      double verdict_costs = 0.0;
      size_t verdicts = 0;
      for (const TraceEvent& e : all.events) {
        if (e.kind != TraceEvent::Kind::kVerdict) continue;
        verdict_costs += e.cost;
        ++verdicts;
      }
      EXPECT_EQ(verdicts, ds.num_rows());
      EXPECT_EQ(std::bit_cast<uint64_t>(res.total_cost),
                std::bit_cast<uint64_t>(verdict_costs));
    }
  }
}

TEST(ExpectedCostTest, VerdictLeafIsFree) {
  const Schema schema = SmallSchema();
  const Dataset ds = UniformDataset(schema, 100, 5);
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  Plan p(PlanNode::Verdict(true));
  EXPECT_DOUBLE_EQ(ExpectedPlanCost(p, est, cm), 0.0);
}

TEST(ExpectedCostTest, SequentialLeafUsesConditionalProbabilities) {
  // Two perfectly correlated binary attributes: after the first predicate
  // passes, the second always passes, so its cost is paid with exactly the
  // first predicate's pass probability.
  Schema schema;
  schema.AddAttribute("a", 2, 10.0);
  schema.AddAttribute("b", 2, 100.0);
  Dataset ds(schema);
  for (int i = 0; i < 30; ++i) ds.Append({1, 1});
  for (int i = 0; i < 70; ++i) ds.Append({0, 0});
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  Plan p(PlanNode::Sequential({Predicate(0, 1, 1), Predicate(1, 1, 1)}));
  // cost = 10 + P(a=1) * 100 = 10 + 30.
  EXPECT_NEAR(ExpectedPlanCost(p, est, cm), 40.0, 1e-9);
}

TEST(ExpectedCostTest, GenericLeafCostsAcquireUntilResolved) {
  Schema schema;
  schema.AddAttribute("a", 2, 5.0);
  schema.AddAttribute("b", 2, 50.0);
  Dataset ds(schema);
  // a == 1 half the time; query is (a=1) OR (b=1): when a==1 resolve early.
  ds.Append({1, 0});
  ds.Append({1, 1});
  ds.Append({0, 1});
  ds.Append({0, 0});
  DatasetEstimator est(ds);
  PerAttributeCostModel cm(schema);
  Query q = Query::Disjunction({{Predicate(0, 1, 1)}, {Predicate(1, 1, 1)}});
  Plan p(PlanNode::Generic(q, {0, 1}));
  // cost = 5 + P(a=0) * 50 = 5 + 25.
  EXPECT_NEAR(ExpectedPlanCost(p, est, cm), 30.0, 1e-9);
  const EmpiricalCostResult emp = EmpiricalPlanCost(p, ds, q, cm);
  EXPECT_NEAR(emp.mean_cost, 30.0, 1e-9);
  EXPECT_EQ(emp.verdict_errors, 0u);
}

}  // namespace
}  // namespace caqp
