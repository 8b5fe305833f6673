// CompiledPlan: flat layout invariants, tree<->flat round-trips, and the
// central property of the IR refactor -- executing the compiled form is
// observationally identical (verdict3, cost, acquisitions, retries, failure
// sets) to walking the pointer tree (the reference walk in test_util.h),
// across planners, workloads, fault profiles, and degradation policies.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "plan/plan_serde.h"
#include "plan/plan_verify.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::CountVerdictMismatches;
using testing_util::ExecuteTreeReference;
using testing_util::RandomConjunctiveQuery;
using testing_util::SmallSchema;
using testing_util::UniformDataset;

// ---------------------------------------------------------------------------
// Flat layout
// ---------------------------------------------------------------------------

Plan SampleTree() {
  // if exp0 >= 2: (if cheap0 >= 1: eval [cheap1 in 0..2] else FAIL)
  // else: eval [cheap0 in 1..2, cheap1 in 0..3]
  return Plan(PlanNode::Split(
      2, 2,
      PlanNode::Sequential({Predicate(0, 1, 2), Predicate(1, 0, 3)}),
      PlanNode::Split(0, 1, PlanNode::Verdict(false),
                      PlanNode::Sequential({Predicate(1, 0, 2)}))));
}

TEST(CompiledPlanTest, PreorderLayoutWithImplicitLtChild) {
  const CompiledPlan p = CompiledPlan::Compile(SampleTree());
  ASSERT_EQ(p.NumNodes(), 5u);
  EXPECT_EQ(p.NumSplits(), 2u);
  EXPECT_EQ(p.Depth(), 2u);

  // Root split at index 0; its "<" subtree is the next node.
  EXPECT_EQ(p.node(0).kind, CompiledPlan::Kind::kSplit);
  EXPECT_EQ(p.node(0).attr, 2);
  EXPECT_EQ(p.node(0).split_value, 2);
  EXPECT_EQ(CompiledPlan::LtChild(0), 1u);
  EXPECT_EQ(p.node(1).kind, CompiledPlan::Kind::kSequential);
  ASSERT_EQ(p.sequence(p.node(1)).size(), 2u);
  EXPECT_EQ(p.sequence(p.node(1))[0], Predicate(0, 1, 2));

  // ">=" subtree: inner split, then its FAIL verdict, then its leaf.
  const uint32_t ge = p.node(0).a;
  EXPECT_EQ(ge, 2u);
  EXPECT_EQ(p.node(2).kind, CompiledPlan::Kind::kSplit);
  EXPECT_EQ(p.node(3).kind, CompiledPlan::Kind::kVerdict);
  EXPECT_FALSE(p.node(3).verdict());
  EXPECT_EQ(p.node(2).a, 4u);
  EXPECT_EQ(p.node(4).kind, CompiledPlan::Kind::kSequential);
  ASSERT_EQ(p.sequence(p.node(4)).size(), 1u);
  EXPECT_EQ(p.sequence(p.node(4))[0], Predicate(1, 0, 2));

  // Attribute bitmap covers splits and sequences.
  EXPECT_TRUE(p.attrs().Contains(0));
  EXPECT_TRUE(p.attrs().Contains(1));
  EXPECT_TRUE(p.attrs().Contains(2));
  EXPECT_FALSE(p.attrs().Contains(3));

  EXPECT_TRUE(PlanIsWellFormed(p, SmallSchema()));
}

TEST(CompiledPlanTest, FirstAcquisitionFlags) {
  // Outer split on attr 0, "<" child splits attr 0 again (not a first
  // acquisition), ">=" child splits attr 1 (first).
  const Plan tree(PlanNode::Split(
      0, 2,
      PlanNode::Split(0, 1, PlanNode::Verdict(false),
                      PlanNode::Verdict(true)),
      PlanNode::Split(1, 3, PlanNode::Verdict(false),
                      PlanNode::Verdict(true))));
  const CompiledPlan p = CompiledPlan::Compile(tree);
  ASSERT_EQ(p.NumNodes(), 7u);
  EXPECT_TRUE(p.node(0).first_acquisition());    // attr 0, root
  EXPECT_FALSE(p.node(1).first_acquisition());   // attr 0 again, under root
  const uint32_t ge = p.node(0).a;
  EXPECT_EQ(p.node(ge).attr, 1);
  EXPECT_TRUE(p.node(ge).first_acquisition());   // attr 1, first on its path
}

TEST(CompiledPlanTest, GenericLeafSideTables) {
  const Query q = Query::Disjunction(
      {{Predicate(0, 3, 3)}, {Predicate(2, 0, 0), Predicate(1, 0, 1)}});
  const CompiledPlan p =
      CompiledPlan::Compile(*PlanNode::Generic(q, {0, 2, 1}));
  ASSERT_EQ(p.NumNodes(), 1u);
  const CompiledPlan::Node& n = p.root();
  ASSERT_EQ(n.kind, CompiledPlan::Kind::kGeneric);
  const std::span<const AttrId> order = p.acquire_order(n);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_TRUE(p.residual_query(n) == q);
  EXPECT_EQ(CountVerdictMismatches(p, q, SmallSchema()), 0u);
}

TEST(CompiledPlanTest, ToTreeRoundTripsStructurally) {
  const Schema schema = SmallSchema();
  const Plan tree = SampleTree();
  const CompiledPlan p = CompiledPlan::Compile(tree);
  const Plan back = p.ToTree();
  // Byte-identical serialization == structural identity.
  EXPECT_EQ(SerializePlan(back), SerializePlan(tree));
  EXPECT_EQ(PrintPlan(p, schema), PrintPlan(back, schema));
  const CompiledPlan again = CompiledPlan::Compile(back);
  EXPECT_EQ(SerializePlan(again), SerializePlan(p));
}

TEST(CompiledPlanTest, DefaultPlanRejectsEverything) {
  const CompiledPlan p;
  EXPECT_EQ(p.NumNodes(), 1u);
  EXPECT_FALSE(p.VerdictFor({0, 0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Tree vs flat execution equivalence
// ---------------------------------------------------------------------------

void ExpectSameExecution(const ExecutionResult& tree,
                         const ExecutionResult& flat) {
  EXPECT_EQ(tree.verdict, flat.verdict);
  EXPECT_EQ(tree.verdict3, flat.verdict3);
  EXPECT_EQ(tree.aborted, flat.aborted);
  EXPECT_DOUBLE_EQ(tree.cost, flat.cost);
  EXPECT_EQ(tree.acquisitions, flat.acquisitions);
  EXPECT_EQ(tree.retries, flat.retries);
  EXPECT_EQ(tree.acquired.bits, flat.acquired.bits);
  EXPECT_EQ(tree.failed.bits, flat.failed.bits);
}

struct FaultCase {
  const char* name;
  FaultSpec spec;
  DegradationPolicy policy;
};

std::vector<FaultCase> FaultCases() {
  std::vector<FaultCase> cases;
  cases.push_back({"none", FaultSpec{}, DegradationPolicy::UnknownVerdict()});
  FaultSpec transient;
  transient.transient = 0.25;
  transient.seed = 11;
  cases.push_back({"transient-unknown", transient,
                   DegradationPolicy::UnknownVerdict()});
  cases.push_back({"transient-retry", transient,
                   DegradationPolicy::Retry(3, 1.5)});
  FaultSpec harsh;
  harsh.transient = 0.2;
  harsh.stuck = 0.15;
  harsh.spike = 0.1;
  harsh.spike_multiplier = 4.0;
  harsh.seed = 23;
  cases.push_back({"stuck-abort", harsh, DegradationPolicy::Abort()});
  cases.push_back({"stuck-unknown", harsh,
                   DegradationPolicy::UnknownVerdict()});
  return cases;
}

/// Builds one plan per planner over the training set.
std::vector<std::pair<std::string, Plan>> PlansForQuery(
    const Query& query, const Dataset& train,
    const AcquisitionCostModel& cm) {
  DatasetEstimator estimator(train);
  const Schema& schema = train.schema();
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;

  std::vector<std::pair<std::string, Plan>> plans;
  // Only the exhaustive planner accepts disjunctive (DNF) queries.
  if (query.IsConjunctive()) {
    NaivePlanner naive(estimator, cm);
    plans.emplace_back("Naive", naive.BuildPlan(query));
    SequentialPlanner corrseq(estimator, cm, optseq, "CorrSeq");
    plans.emplace_back("CorrSeq", corrseq.BuildPlan(query));
    GreedyPlanner::Options gopts;
    gopts.split_points = &splits;
    gopts.seq_solver = &optseq;
    gopts.max_splits = 4;
    GreedyPlanner greedy(estimator, cm, gopts);
    plans.emplace_back("Greedy", greedy.BuildPlan(query));
  }
  ExhaustivePlanner::Options xopts;
  xopts.split_points = &splits;
  ExhaustivePlanner exhaustive(estimator, cm, xopts);
  plans.emplace_back("Exhaustive", exhaustive.BuildPlan(query));
  return plans;
}

TEST(CompiledPlanEquivalenceTest, TreeAndFlatAgreeAcrossPlannersAndFaults) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const Dataset train = CorrelatedDataset(schema, 400, /*seed=*/3);
  const Dataset test = CorrelatedDataset(schema, 60, /*seed=*/77);

  Rng qrng(19);
  std::vector<Query> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(RandomConjunctiveQuery(schema, qrng));
  }
  queries.push_back(Query::Disjunction(
      {{Predicate(0, 2, 3)}, {Predicate(2, 0, 1), Predicate(3, 1, 3)}}));

  const std::vector<FaultCase> fault_cases = FaultCases();
  for (const Query& query : queries) {
    for (const auto& [planner, plan] : PlansForQuery(query, train, cm)) {
      const CompiledPlan compiled = CompiledPlan::Compile(plan);
      for (const FaultCase& fc : fault_cases) {
        // Paired injectors with one spec: the determinism contract makes
        // the k-th attempt for an attribute identical across both runs.
        FaultInjector tree_inj(fc.spec);
        FaultInjector flat_inj(fc.spec);
        for (RowId r = 0; r < test.num_rows(); ++r) {
          const Tuple t = test.GetTuple(r);
          TupleSource tree_base(t);
          FaultyAcquisitionSource tree_src(tree_base, tree_inj);
          const ExecutionResult tree_res =
              ExecuteTreeReference(plan, schema, cm, tree_src, fc.policy);
          TupleSource flat_base(t);
          FaultyAcquisitionSource flat_src(flat_base, flat_inj);
          const ExecutionResult flat_res = ExecutePlan(
              compiled, schema, cm, flat_src, nullptr, fc.policy);
          SCOPED_TRACE(std::string(planner) + "/" + fc.name + "/row " +
                       std::to_string(r));
          ExpectSameExecution(tree_res, flat_res);
        }
      }
    }
  }
}

TEST(CompiledPlanEquivalenceTest, ExecuteBatchMatchesPerTupleExecution) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const Dataset train = CorrelatedDataset(schema, 300, /*seed=*/5);
  const Dataset test = UniformDataset(schema, 128, /*seed=*/6);
  const Query query = Query::Conjunction(
      {Predicate(0, 1, 2), Predicate(2, 2, 3), Predicate(3, 0, 2)});

  for (const auto& [planner, plan] : PlansForQuery(query, train, cm)) {
    SCOPED_TRACE(planner);
    const CompiledPlan compiled = CompiledPlan::Compile(plan);
    std::vector<RowId> rows(test.num_rows());
    for (RowId r = 0; r < test.num_rows(); ++r) rows[r] = r;
    std::vector<uint8_t> verdicts;
    const BatchExecutionStats stats =
        ExecuteBatch(compiled, test, rows, cm, &verdicts);
    ASSERT_EQ(verdicts.size(), rows.size());
    EXPECT_EQ(stats.tuples, rows.size());

    double want_cost = 0.0;
    size_t want_acq = 0, want_matches = 0;
    for (RowId r : rows) {
      const Tuple t = test.GetTuple(r);
      TupleSource src(t);
      const ExecutionResult res = ExecutePlan(compiled, schema, cm, src);
      EXPECT_EQ(verdicts[r] != 0, res.verdict) << "row " << r;
      want_cost += res.cost;
      want_acq += static_cast<size_t>(res.acquisitions);
      if (res.verdict) ++want_matches;
    }
    EXPECT_DOUBLE_EQ(stats.total_cost, want_cost);
    EXPECT_EQ(stats.total_acquisitions, want_acq);
    EXPECT_EQ(stats.matches, want_matches);
  }
}

TEST(CompiledPlanEquivalenceTest, CostersAgreeOnTreeAndFlat) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const Dataset train = CorrelatedDataset(schema, 500, /*seed=*/9);
  DatasetEstimator estimator(train);
  Rng rng(4);
  const Query query = RandomConjunctiveQuery(schema, rng);

  for (const auto& [planner, plan] : PlansForQuery(query, train, cm)) {
    SCOPED_TRACE(planner);
    const CompiledPlan compiled = CompiledPlan::Compile(plan);
    EXPECT_DOUBLE_EQ(ExpectedPlanCost(plan, estimator, cm),
                     ExpectedPlanCost(compiled, estimator, cm));
    const EmpiricalCostResult tree_emp =
        EmpiricalPlanCost(plan, train, query, cm);
    const EmpiricalCostResult flat_emp =
        EmpiricalPlanCost(compiled, train, query, cm);
    EXPECT_DOUBLE_EQ(tree_emp.total_cost, flat_emp.total_cost);
    EXPECT_EQ(tree_emp.verdict_errors, flat_emp.verdict_errors);
    EXPECT_EQ(tree_emp.verdict_errors, 0u);
  }
}

// ---------------------------------------------------------------------------
// Flat serde
// ---------------------------------------------------------------------------

TEST(CompiledPlanSerdeTest, FlatRoundTripIsByteIdentical) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const Dataset train = CorrelatedDataset(schema, 300, /*seed=*/21);
  const Query query = Query::Conjunction(
      {Predicate(1, 1, 3), Predicate(2, 0, 1), Predicate(3, 2, 4)});

  for (const auto& [planner, plan] : PlansForQuery(query, train, cm)) {
    SCOPED_TRACE(planner);
    const CompiledPlan compiled = CompiledPlan::Compile(plan);
    const std::vector<uint8_t> bytes = SerializePlan(compiled);
    EXPECT_EQ(bytes[0], kPlanWireFormatVersion);
    EXPECT_EQ(PlanSizeBytes(compiled), bytes.size());
    const Result<CompiledPlan> back = DeserializeCompiledPlan(bytes, schema);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(SerializePlan(*back), bytes);
    EXPECT_EQ(back->NumNodes(), compiled.NumNodes());
    EXPECT_EQ(back->NumSplits(), compiled.NumSplits());
    EXPECT_EQ(back->Depth(), compiled.Depth());
    EXPECT_EQ(back->attrs().bits, compiled.attrs().bits);
    EXPECT_EQ(CountVerdictMismatches(*back, query, schema), 0u);
  }
}

TEST(CompiledPlanSerdeTest, TopologyCorruptionIsRejected) {
  const Schema schema = SmallSchema();
  const CompiledPlan p = CompiledPlan::Compile(SampleTree());
  const std::vector<uint8_t> good = SerializePlan(p);

  // Exhaustive single-byte corruption: decode must never crash, and
  // anything accepted must be well-formed.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (int delta : {1, 0x40, 0x80}) {
      std::vector<uint8_t> bad = good;
      bad[pos] = static_cast<uint8_t>(bad[pos] + delta);
      const Result<CompiledPlan> r = DeserializeCompiledPlan(bad, schema);
      if (r.ok()) {
        EXPECT_TRUE(PlanIsWellFormed(*r, schema));
      }
    }
  }

  // Targeted: a split whose ">=" child index escapes the node array. The
  // root split's ge index is the varint after version/count/kind/attr/value,
  // i.e. byte 5 for this plan.
  std::vector<uint8_t> bad = good;
  bad[5] = 60;  // ge index far out of range
  EXPECT_FALSE(DeserializeCompiledPlan(bad, schema).ok());
}

// ---------------------------------------------------------------------------
// Exhaustive planner arena
// ---------------------------------------------------------------------------

TEST(CompiledPlanArenaTest, ExhaustiveRebuildsAreByteIdentical) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const Dataset train = CorrelatedDataset(schema, 400, /*seed=*/31);
  DatasetEstimator estimator(train);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(estimator, cm, opts);

  const Query query = Query::Conjunction(
      {Predicate(0, 1, 2), Predicate(2, 1, 3), Predicate(3, 0, 2)});
  const Plan first = planner.BuildPlan(query);
  const double first_cost = planner.LastPlanCost();
  const Plan second = planner.BuildPlan(query);
  // Handle-based memoization is deterministic: same query, same memo
  // decisions, same materialized tree.
  EXPECT_EQ(SerializePlan(first), SerializePlan(second));
  EXPECT_DOUBLE_EQ(planner.LastPlanCost(), first_cost);
  EXPECT_GT(planner.stats().cache_hits, 0u);
  EXPECT_EQ(CountVerdictMismatches(CompiledPlan::Compile(first), query,
                                   schema),
            0u);
}

}  // namespace
}  // namespace caqp
