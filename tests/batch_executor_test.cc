// Columnar batch executor tests: BatchPlanView structural invariants, and
// the differential contract — ColumnarBatchExecutor::Execute must agree with
// its one oracle, per-row ExecutePlan folded in row order, bit for bit
// (verdicts, matches, acquisitions, acquired union, total_cost as an exact
// double) across planners, datasets, chunk sizes, and row orders. Without
// faults the oracle reads each row through a RowSource; consecutive-row
// batches exercise the masked AVX-512 engine where the CPU has it, shuffled
// and strided batches pin the selection-vector kernels, and plans with
// generic leaves (Exhaustive plans of DNF queries) resume those rows on the
// per-row walk. Fault mode must agree just as exactly with the oracle over
// a row-keyed FaultyAcquisitionSource, across fault profiles and
// degradation policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "data/garden_gen.h"
#include "data/lab_gen.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "exec/batch_executor.h"
#include "exec/batch_masked.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/split_points.h"
#include "plan/compiled_plan.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

// ---------------------------------------------------------------------------
// View invariants

TEST(BatchExecViewTest, LevelMajorOrderAndStaticAcquiredSets) {
  GardenDataOptions gopts;
  gopts.num_motes = 3;
  gopts.epochs = 2000;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  GardenQueryOptions qopts;
  qopts.num_queries = 6;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver seq;
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &seq;
  hopts.max_splits = 5;
  GreedyPlanner planner(est, cm, hopts);

  for (const Query& q : queries) {
    const CompiledPlan compiled = CompiledPlan::Compile(planner.BuildPlan(q));
    const BatchPlanView view(compiled);
    ASSERT_GT(view.num_slots(), 0u);

    // Levels tile the slot range in order, and every slot's children live
    // on the next level — the parent-before-child precondition the forward
    // kernel sweep relies on.
    uint32_t covered = 0;
    for (size_t l = 0; l < view.num_levels(); ++l) {
      const auto [begin, end] = view.level(l);
      EXPECT_EQ(begin, covered);
      EXPECT_LT(begin, end);
      covered = end;
    }
    EXPECT_EQ(covered, view.num_slots());

    for (uint32_t s = 0; s < view.num_slots(); ++s) {
      const BatchPlanView::Node& node = view.slot(s);
      if (node.op == BatchPlanView::Op::kSplitFirst ||
          node.op == BatchPlanView::Op::kSplitRepeat) {
        ASSERT_GT(node.lt, s);
        ASSERT_GT(node.ge, s);
        // A split's children enter with the parent's entry set plus the
        // split attribute (kSplitFirst) or exactly the parent's (repeat).
        AttrSet expect = node.entry_acquired;
        expect.Insert(node.attr);
        if (node.op == BatchPlanView::Op::kSplitFirst) {
          EXPECT_FALSE(node.entry_acquired.Contains(node.attr));
        } else {
          EXPECT_TRUE(node.entry_acquired.Contains(node.attr));
        }
        EXPECT_EQ(view.slot(node.lt).entry_acquired.bits, expect.bits);
        EXPECT_EQ(view.slot(node.ge).entry_acquired.bits, expect.bits);
      } else if (node.op != BatchPlanView::Op::kVerdictTrue &&
                 node.op != BatchPlanView::Op::kVerdictFalse) {
        // Sequential/generic leaf: is_new and acquired_before flags must be
        // consistent with a running walk from the entry set.
        AttrSet running = node.entry_acquired;
        for (const BatchPlanView::AcqStep& st : view.steps(node)) {
          EXPECT_EQ(st.is_new, !running.Contains(st.attr));
          EXPECT_EQ(st.acquired_before.bits, running.bits);
          running.Insert(st.attr);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: columnar vs the per-row oracle

/// Chunk sizes crossing every boundary case: single-row chunks, a size that
/// leaves ragged tails, the default, and one chunk for the whole batch.
constexpr size_t kChunkSizes[] = {1, 7, 1024, 0};

/// The per-row oracle folded into BatchExecutionStats form: one ExecutePlan
/// per row, costs summed in row order. Rows are read through a RowSource,
/// behind a FaultyAcquisitionSource with row-keyed draws when `spec` is
/// given; fault-free verdict bytes are then 1/0.
BatchExecutionStats PerRowOracle(const CompiledPlan& plan, const Dataset& data,
                                 const AcquisitionCostModel& cm,
                                 std::span<const RowId> rows,
                                 const FaultSpec* spec,
                                 const DegradationPolicy& policy,
                                 std::vector<uint8_t>* verdicts,
                                 ExecutionProfile* profile = nullptr) {
  RowSource base(data);
  const FaultInjector injector(spec != nullptr ? *spec : FaultSpec{});
  FaultyAcquisitionSource faulty(base, injector);
  AcquisitionSource& source =
      spec != nullptr ? static_cast<AcquisitionSource&>(faulty) : base;
  BatchExecutionStats want;
  want.tuples = rows.size();
  verdicts->clear();
  for (const RowId row : rows) {
    base.SetRow(row);
    faulty.SetRow(row);
    const ExecutionResult r = ExecutePlan(plan, data.schema(), cm, source,
                                          nullptr, policy, profile);
    verdicts->push_back(static_cast<uint8_t>(r.verdict3));
    want.matches += r.verdict3 == Truth::kTrue;
    want.unknown += r.verdict3 == Truth::kUnknown;
    want.aborted += r.aborted;
    want.total_acquisitions += static_cast<size_t>(r.acquisitions);
    want.total_retries += static_cast<size_t>(r.retries);
    want.failed_attributes += static_cast<size_t>(r.failed.Count());
    want.total_cost += r.cost;
    want.acquired = want.acquired.Union(r.acquired);
    want.failed = want.failed.Union(r.failed);
  }
  want.faults_injected = faulty.injected();
  return want;
}

void ExpectMatchesPerRow(const CompiledPlan& plan, const Dataset& data,
                         const AcquisitionCostModel& cm,
                         std::span<const RowId> rows) {
  std::vector<uint8_t> want_verdicts;
  const BatchExecutionStats want = PerRowOracle(
      plan, data, cm, rows, /*spec=*/nullptr, {}, &want_verdicts);

  ColumnarBatchExecutor exec(plan, data, cm);
  for (const size_t chunk : kChunkSizes) {
    BatchExecOptions opts;
    opts.chunk_size = chunk;
    std::vector<uint8_t> got_verdicts;
    const BatchExecutionStats got = exec.Execute(rows, &got_verdicts, opts);
    EXPECT_EQ(got.tuples, want.tuples) << "chunk=" << chunk;
    EXPECT_EQ(got.matches, want.matches) << "chunk=" << chunk;
    EXPECT_EQ(got.total_acquisitions, want.total_acquisitions)
        << "chunk=" << chunk;
    EXPECT_EQ(got.acquired.bits, want.acquired.bits) << "chunk=" << chunk;
    // Exact, not approximate: the cost tables replay the per-row walk's
    // addition sequence and the final sum runs in row order.
    EXPECT_EQ(got.total_cost, want.total_cost) << "chunk=" << chunk;
    EXPECT_EQ(got_verdicts, want_verdicts) << "chunk=" << chunk;

    // The verdict-free entry point must produce the same stats.
    const BatchExecutionStats no_verdicts = exec.Execute(rows, nullptr, opts);
    EXPECT_EQ(no_verdicts.matches, want.matches) << "chunk=" << chunk;
    EXPECT_EQ(no_verdicts.total_cost, want.total_cost) << "chunk=" << chunk;
  }
}

/// Two-disjunct DNF queries: the only queries the exhaustive planner
/// answers with residual-query (generic) leaves.
Query RandomDnfQuery(const Schema& schema, Rng& rng) {
  return Query::Disjunction(
      {testing_util::RandomConjunctiveQuery(schema, rng).predicates(),
       testing_util::RandomConjunctiveQuery(schema, rng).predicates()});
}

size_t GenericSlots(const CompiledPlan& plan) {
  const BatchPlanView view(plan);
  size_t n = 0;
  for (uint32_t s = 0; s < view.num_slots(); ++s) {
    n += view.slot(s).op == BatchPlanView::Op::kGeneric;
  }
  return n;
}

/// Runs the differential over the row orders that select each engine:
/// consecutive rows (masked AVX-512 where available), a consecutive
/// sub-range with a nonzero base, a shuffle, and a stride-3 subset (both
/// selection-vector kernels).
void ExpectAllRowOrdersMatch(const CompiledPlan& plan, const Dataset& data,
                             const AcquisitionCostModel& cm) {
  const size_t n = data.num_rows();
  std::vector<RowId> ids(n);
  for (RowId r = 0; r < n; ++r) ids[r] = r;
  ExpectMatchesPerRow(plan, data, cm, ids);

  const size_t base = std::min<size_t>(17, n / 2);
  ExpectMatchesPerRow(
      plan, data, cm,
      std::span<const RowId>(ids.data() + base, n - base));

  std::vector<RowId> shuffled = ids;
  std::mt19937 rng(20050405u);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ExpectMatchesPerRow(plan, data, cm, shuffled);

  std::vector<RowId> strided;
  for (size_t r = 0; r < n; r += 3) strided.push_back(static_cast<RowId>(r));
  ExpectMatchesPerRow(plan, data, cm, strided);
}

TEST(BatchExecDifferentialTest, GardenWorkloadAcrossPlanners) {
  GardenDataOptions gopts;
  gopts.num_motes = 3;
  gopts.epochs = 3000;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  GardenQueryOptions qopts;
  qopts.num_queries = 4;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver seq;

  NaivePlanner naive(est, cm);
  SequentialPlanner corrseq(est, cm, seq, "CorrSeq");
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &seq;
  hopts.max_splits = 5;
  GreedyPlanner greedy(est, cm, hopts);

  const Planner* planners[] = {&naive, &corrseq, &greedy};
  for (const Planner* planner : planners) {
    for (const Query& q : queries) {
      const CompiledPlan compiled =
          CompiledPlan::Compile(planner->BuildPlan(q));
      SCOPED_TRACE(planner->Name());
      ExpectAllRowOrdersMatch(compiled, test, cm);
    }
  }
}

TEST(BatchExecDifferentialTest, LabWorkload) {
  LabDataOptions lopts;
  lopts.num_motes = 4;
  lopts.readings = 4000;
  const Dataset all = GenerateLabData(lopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const LabAttrs attrs = ResolveLabAttrs(schema);

  LabQueryOptions qopts;
  qopts.num_queries = 3;
  const std::vector<Query> queries = GenerateLabQueries(
      train, {attrs.light, attrs.temperature, attrs.humidity}, qopts);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  GreedySeqSolver seq;
  SequentialPlanner corrseq(est, cm, seq, "CorrSeq");
  for (const Query& q : queries) {
    const CompiledPlan compiled = CompiledPlan::Compile(corrseq.BuildPlan(q));
    ExpectAllRowOrdersMatch(compiled, test, cm);
  }
}

TEST(BatchExecDifferentialTest, SyntheticWorkload) {
  SyntheticDataOptions sopts;
  sopts.n = 6;
  sopts.tuples = 3000;
  const Dataset all = GenerateSyntheticData(sopts);
  const auto [train, test] = all.SplitFraction(0.5);
  const Schema& schema = all.schema();
  const Query q = SyntheticAllExpensiveQuery(schema);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  GreedySeqSolver seq;
  NaivePlanner naive(est, cm);
  SequentialPlanner corrseq(est, cm, seq, "CorrSeq");
  for (const Planner* planner :
       {static_cast<const Planner*>(&naive),
        static_cast<const Planner*>(&corrseq)}) {
    const CompiledPlan compiled = CompiledPlan::Compile(planner->BuildPlan(q));
    SCOPED_TRACE(planner->Name());
    ExpectAllRowOrdersMatch(compiled, test, cm);
  }
}

TEST(BatchExecDifferentialTest, ExhaustivePlansWithGenericLeaves) {
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 2500, 11);
  const auto [train, test] = data.SplitFraction(0.5);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);

  Rng rng(7);
  size_t generic_slots = 0;
  for (int i = 0; i < 6; ++i) {
    const Query q = RandomDnfQuery(schema, rng);
    const CompiledPlan compiled = CompiledPlan::Compile(planner.BuildPlan(q));
    generic_slots += GenericSlots(compiled);
    ExpectAllRowOrdersMatch(compiled, test, cm);
  }
  EXPECT_GT(generic_slots, 0u);
}

TEST(BatchExecDifferentialTest, HandBuiltGenericLeafDisjunction) {
  // Deterministic generic-leaf coverage, independent of what the exhaustive
  // planner emits: a disjunction leaf below a split, where the resumed walk
  // must reuse the split-path value and short-circuit as soon as the
  // three-valued evaluation resolves.
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 2000, 23);
  PerAttributeCostModel cm(schema);

  Query q = Query::Disjunction({{Predicate(0, 3, 3)}, {Predicate(3, 4, 4)}});
  auto leaf = PlanNode::Generic(q, {0, 3});
  auto root = PlanNode::Split(0, 2, PlanNode::Verdict(false), std::move(leaf));
  const CompiledPlan compiled = CompiledPlan::Compile(Plan(std::move(root)));
  ExpectAllRowOrdersMatch(compiled, data, cm);
}

TEST(BatchExecDifferentialTest, EmptyAndSingleRowBatches) {
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 100, 5);
  PerAttributeCostModel cm(schema);
  Plan plan(PlanNode::Sequential(
      {Predicate(1, 0, 2), Predicate(3, 4, 4), Predicate(2, 0, 0)}));
  const CompiledPlan compiled = CompiledPlan::Compile(std::move(plan));

  ColumnarBatchExecutor exec(compiled, data, cm);
  std::vector<uint8_t> verdicts{42};
  const BatchExecutionStats empty =
      exec.Execute(std::span<const RowId>(), &verdicts);
  EXPECT_EQ(empty.tuples, 0u);
  EXPECT_EQ(empty.matches, 0u);
  EXPECT_EQ(empty.total_cost, 0.0);
  EXPECT_TRUE(verdicts.empty());

  const RowId one = 42;
  ExpectMatchesPerRow(compiled, data, cm, std::span<const RowId>(&one, 1));
}

// ---------------------------------------------------------------------------
// Profile parity

/// The columnar engine's profile counters against a per-tuple profiled
/// ExecutePlan run over the same rows, in two row orders — masked and
/// selection engines must produce the same counters (shuffling rows
/// permutes per-tuple work, not its totals).
void ExpectProfileMatchesPerTuple(const CompiledPlan& compiled,
                                  const Dataset& test,
                                  const AcquisitionCostModel& cm) {
  std::vector<RowId> ids(test.num_rows());
  for (RowId r = 0; r < ids.size(); ++r) ids[r] = r;

  ExecutionProfile scalar_profile(compiled.NumNodes());
  for (const RowId r : ids) {
    const Tuple t = test.GetTuple(r);
    TupleSource src(t);
    ExecutePlan(compiled, test.schema(), cm, src, nullptr, {},
                &scalar_profile);
  }
  const ExecutionProfileSnapshot want = scalar_profile.Snapshot();

  std::vector<RowId> shuffled = ids;
  std::mt19937 rng(99);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const std::vector<RowId>* order : {&ids, &shuffled}) {
    ExecutionProfile batch_profile(compiled.NumNodes());
    ColumnarBatchExecutor exec(compiled, test, cm);
    BatchExecOptions opts;
    opts.profile = &batch_profile;
    const BatchExecutionStats stats = exec.Execute(*order, nullptr, opts);
    const ExecutionProfileSnapshot got = batch_profile.Snapshot();

    ASSERT_EQ(got.nodes.size(), want.nodes.size());
    for (size_t i = 0; i < want.nodes.size(); ++i) {
      EXPECT_EQ(got.nodes[i].evals, want.nodes[i].evals) << "node " << i;
      EXPECT_EQ(got.nodes[i].passes, want.nodes[i].passes) << "node " << i;
    }
    EXPECT_EQ(got.attr_evals, want.attr_evals);
    EXPECT_EQ(got.attr_passes, want.attr_passes);
    EXPECT_EQ(got.executions, want.executions);
    EXPECT_EQ(got.acquisitions, want.acquisitions);
    EXPECT_EQ(got.acquisitions, stats.total_acquisitions);
    // Fresh profiles: one row-order bulk add vs per-tuple adds of the
    // same doubles in the same order — bitwise equal.
    EXPECT_EQ(got.realized_cost, want.realized_cost);
  }
}

TEST(BatchExecProfileTest, CountersMatchPerTupleProfiledRun) {
  obs::SetEnabled(true);

  GardenDataOptions gopts;
  gopts.num_motes = 3;
  gopts.epochs = 2000;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  GardenQueryOptions qopts;
  qopts.num_queries = 3;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver seq;
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &seq;
  hopts.max_splits = 5;
  GreedyPlanner planner(est, cm, hopts);

  for (const Query& q : queries) {
    ExpectProfileMatchesPerTuple(CompiledPlan::Compile(planner.BuildPlan(q)),
                                 test, cm);
  }

  // An Exhaustive plan of a DNF query: its generic-leaf counters come from
  // the rows resumed on the per-row walk.
  const Schema small = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(small, 2000, 11);
  const auto [small_train, small_test] = data.SplitFraction(0.5);
  DatasetEstimator small_est(small_train);
  PerAttributeCostModel small_cm(small);
  const SplitPointSet all_points = SplitPointSet::AllPoints(small);
  ExhaustivePlanner::Options xopts;
  xopts.split_points = &all_points;
  ExhaustivePlanner exhaustive(small_est, small_cm, xopts);
  Rng rng(7);
  const CompiledPlan dnf =
      CompiledPlan::Compile(exhaustive.BuildPlan(RandomDnfQuery(small, rng)));
  ASSERT_GT(GenericSlots(dnf), 0u);
  ExpectProfileMatchesPerTuple(dnf, small_test, small_cm);
}

// ---------------------------------------------------------------------------
// Masked-engine eligibility

TEST(BatchExecMaskedTest, GenericLeavesKeepPlansOffTheMaskedEngine) {
  obs::SetEnabled(true);
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 2000, 11);
  const auto [train, test] = data.SplitFraction(0.5);
  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options xopts;
  xopts.split_points = &splits;
  ExhaustivePlanner exhaustive(est, cm, xopts);
  GreedySeqSolver seq;
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &seq;
  gopts.max_splits = 3;
  GreedyPlanner greedy(est, cm, gopts);

  Rng rng(7);
  const CompiledPlan generic =
      CompiledPlan::Compile(exhaustive.BuildPlan(RandomDnfQuery(schema, rng)));
  ASSERT_GT(GenericSlots(generic), 0u);
  const CompiledPlan conjunctive = CompiledPlan::Compile(
      greedy.BuildPlan(testing_util::RandomConjunctiveQuery(schema, rng)));
  ASSERT_EQ(GenericSlots(conjunctive), 0u);

  std::vector<RowId> rows(test.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
  const obs::Counter& masked_chunks =
      obs::DefaultRegistry().GetCounter("exec.batch.masked_chunks");
  const auto masked_chunks_added = [&](const CompiledPlan& plan) {
    const uint64_t before = masked_chunks.value();
    ColumnarBatchExecutor(plan, test, cm).Execute(rows);
    return masked_chunks.value() - before;
  };
  // Consecutive rows, yet a plan with a generic leaf stays on the
  // selection path: its generic rows resume on the per-row walk.
  EXPECT_EQ(masked_chunks_added(generic), 0u);
  if (internal::MaskedChunkAvailable()) {
    EXPECT_GT(masked_chunks_added(conjunctive), 0u);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: executors are per-thread, profiles are shared

TEST(BatchExecConcurrencyTest, TwoExecutorsShareOneProfile) {
  GardenDataOptions gopts;
  gopts.num_motes = 3;
  gopts.epochs = 1500;
  const Dataset data = GenerateGardenData(gopts);
  const Schema& schema = data.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  GardenQueryOptions qopts;
  qopts.num_queries = 1;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(data);
  PerAttributeCostModel cm(schema);
  GreedySeqSolver seq;
  SequentialPlanner corrseq(est, cm, seq, "CorrSeq");
  const CompiledPlan compiled =
      CompiledPlan::Compile(corrseq.BuildPlan(queries[0]));

  std::vector<RowId> ids(data.num_rows());
  for (RowId r = 0; r < ids.size(); ++r) ids[r] = r;

  // Single-threaded reference over the same rows, twice.
  ExecutionProfile reference(compiled.NumNodes());
  {
    ColumnarBatchExecutor exec(compiled, data, cm);
    BatchExecOptions opts;
    opts.profile = &reference;
    exec.Execute(ids, nullptr, opts);
    exec.Execute(ids, nullptr, opts);
  }
  const ExecutionProfileSnapshot want = reference.Snapshot();

  // One executor per thread (scratch is single-threaded), one shared
  // profile (its counters are the concurrent-aggregation surface).
  ExecutionProfile shared(compiled.NumNodes());
  auto run = [&] {
    ColumnarBatchExecutor exec(compiled, data, cm);
    BatchExecOptions opts;
    opts.profile = &shared;
    exec.Execute(ids, nullptr, opts);
  };
  std::thread a(run);
  std::thread b(run);
  a.join();
  b.join();

  const ExecutionProfileSnapshot got = shared.Snapshot();
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].evals, want.nodes[i].evals);
    EXPECT_EQ(got.nodes[i].passes, want.nodes[i].passes);
  }
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.acquisitions, want.acquisitions);
  EXPECT_DOUBLE_EQ(got.realized_cost, want.realized_cost);
}

// ---------------------------------------------------------------------------
// Fault mode: columnar under faults vs per-row scalar ExecutePlan over
// FaultyAcquisitionSource::SetRow

constexpr const char* kFaultProfiles[] = {
    "transient=0.05,seed=11", "transient@2=0.5,seed=12", "stuck=0.3,seed=13",
    "spike=0.2,spike_mult=3,seed=14",
    // Both ends of the clean-row routing: every row takes the fault-free
    // sweep, and every row takes the fault sweep and resumes.
    "transient=0,seed=15", "stuck=1,seed=16"};

const DegradationPolicy kFaultPolicies[] = {DegradationPolicy::UnknownVerdict(),
                                            DegradationPolicy::Retry(3, 1.5),
                                            DegradationPolicy::Abort()};

FaultSpec ParseProfile(const char* text) {
  const Result<FaultSpec> spec = FaultSpec::Parse(text);
  CAQP_CHECK(spec.ok());
  return spec.value();
}

void ExpectSameStats(const BatchExecutionStats& got,
                     const BatchExecutionStats& want) {
  EXPECT_EQ(got.tuples, want.tuples);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.unknown, want.unknown);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_EQ(got.total_acquisitions, want.total_acquisitions);
  EXPECT_EQ(got.total_retries, want.total_retries);
  EXPECT_EQ(got.failed_attributes, want.failed_attributes);
  EXPECT_EQ(got.faults_injected, want.faults_injected);
  EXPECT_EQ(got.acquired.bits, want.acquired.bits);
  EXPECT_EQ(got.failed.bits, want.failed.bits);
  // Exact: clean rows read the cost tables, resumed rows carry the scalar
  // executor's own total, and the fold runs in row order.
  EXPECT_EQ(got.total_cost, want.total_cost);
}

/// Fault mode vs the oracle for every profile x policy x row order x chunk
/// size, with and without verdict stores.
void ExpectFaultModeMatches(const CompiledPlan& plan, const Dataset& data,
                            const AcquisitionCostModel& cm) {
  const size_t n = data.num_rows();
  std::vector<RowId> consecutive(n);
  for (RowId r = 0; r < n; ++r) consecutive[r] = r;
  std::vector<RowId> shuffled = consecutive;
  std::mt19937 rng(1907u);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::vector<RowId> strided;
  for (size_t r = 0; r < n; r += 3) strided.push_back(static_cast<RowId>(r));

  ColumnarBatchExecutor exec(plan, data, cm);
  size_t injected = 0;  // the matrix must actually exercise faults
  for (const char* profile : kFaultProfiles) {
    const FaultSpec spec = ParseProfile(profile);
    const FaultInjector injector(spec);
    for (const DegradationPolicy& policy : kFaultPolicies) {
      for (const std::vector<RowId>* rows :
           {&consecutive, &shuffled, &strided}) {
        SCOPED_TRACE(std::string(profile) + " policy=" +
                     std::to_string(static_cast<int>(policy.mode)) +
                     " rows=" + std::to_string(rows->size()));
        const FaultRealization faults(injector, *rows,
                                      data.schema().num_attributes());
        std::vector<uint8_t> want_verdicts;
        const BatchExecutionStats want = PerRowOracle(
            plan, data, cm, *rows, &spec, policy, &want_verdicts);
        injected += want.faults_injected;
        for (const size_t chunk : kChunkSizes) {
          SCOPED_TRACE("chunk=" + std::to_string(chunk));
          BatchExecOptions opts;
          opts.chunk_size = chunk;
          opts.faults = &faults;
          opts.policy = policy;
          std::vector<uint8_t> got_verdicts;
          ExpectSameStats(exec.Execute(*rows, &got_verdicts, opts), want);
          EXPECT_EQ(got_verdicts, want_verdicts);
          ExpectSameStats(exec.Execute(*rows, nullptr, opts), want);
        }
      }
    }
  }
  EXPECT_GT(injected, 0u);
}

TEST(BatchExecFaultTest, GardenGreedyAndNaiveMatchPerRowOracle) {
  GardenDataOptions gopts;
  gopts.num_motes = 3;
  gopts.epochs = 1500;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);
  GardenQueryOptions qopts;
  qopts.num_queries = 2;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver seq;
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &seq;
  hopts.max_splits = 5;
  GreedyPlanner greedy(est, cm, hopts);
  NaivePlanner naive(est, cm);
  for (const Planner* planner : {static_cast<const Planner*>(&greedy),
                                 static_cast<const Planner*>(&naive)}) {
    for (const Query& q : queries) {
      SCOPED_TRACE(planner->Name());
      ExpectFaultModeMatches(CompiledPlan::Compile(planner->BuildPlan(q)),
                             test, cm);
    }
  }
}

TEST(BatchExecFaultTest, LabAndSyntheticGreedyMatchPerRowOracle) {
  LabDataOptions lopts;
  lopts.num_motes = 4;
  lopts.readings = 2000;
  const Dataset lab = GenerateLabData(lopts);
  const auto [lab_train, lab_test] = lab.SplitFraction(0.6);
  const LabAttrs attrs = ResolveLabAttrs(lab.schema());
  LabQueryOptions qopts;
  qopts.num_queries = 1;
  const Query lab_query = GenerateLabQueries(
      lab_train, {attrs.light, attrs.temperature, attrs.humidity}, qopts)[0];

  SyntheticDataOptions sopts;
  sopts.n = 6;
  sopts.tuples = 2000;
  const Dataset syn = GenerateSyntheticData(sopts);
  const auto [syn_train, syn_test] = syn.SplitFraction(0.5);
  const Query syn_query = SyntheticAllExpensiveQuery(syn.schema());

  GreedySeqSolver seq;
  const struct {
    const Dataset& train;
    const Dataset& test;
    const Query& query;
  } cases[] = {{lab_train, lab_test, lab_query},
               {syn_train, syn_test, syn_query}};
  for (const auto& c : cases) {
    const Schema& schema = c.test.schema();
    DatasetEstimator est(c.train);
    PerAttributeCostModel cm(schema);
    const SplitPointSet splits = SplitPointSet::AllPoints(schema);
    GreedyPlanner::Options hopts;
    hopts.split_points = &splits;
    hopts.seq_solver = &seq;
    hopts.max_splits = 4;
    GreedyPlanner greedy(est, cm, hopts);
    ExpectFaultModeMatches(CompiledPlan::Compile(greedy.BuildPlan(c.query)),
                           c.test, cm);
  }
}

TEST(BatchExecFaultTest, ExhaustiveGenericLeavesMatchPerRowOracle) {
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 1500, 11);
  const auto [train, test] = data.SplitFraction(0.5);
  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  Rng rng(7);
  size_t generic_slots = 0;
  for (int i = 0; i < 2; ++i) {
    const CompiledPlan plan =
        CompiledPlan::Compile(planner.BuildPlan(RandomDnfQuery(schema, rng)));
    generic_slots += GenericSlots(plan);
    ExpectFaultModeMatches(plan, test, cm);
  }
  EXPECT_GT(generic_slots, 0u);
  // A residual-query leaf below a split, for certain generic coverage.
  Query q = Query::Disjunction({{Predicate(0, 3, 3)}, {Predicate(3, 4, 4)}});
  auto root = PlanNode::Split(0, 2, PlanNode::Verdict(false),
                              PlanNode::Generic(q, {0, 3}));
  ExpectFaultModeMatches(CompiledPlan::Compile(Plan(std::move(root))), test,
                         cm);
}

TEST(BatchExecFaultTest, ProfileAndObsCountersMatchPerRowPath) {
  obs::SetEnabled(true);
  GardenDataOptions gopts;
  gopts.num_motes = 3;
  gopts.epochs = 1500;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);
  GardenQueryOptions qopts;
  qopts.num_queries = 1;
  const Query q = GenerateGardenQueries(schema, attrs.temperature,
                                        attrs.humidity, qopts)[0];
  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver seq;
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &seq;
  hopts.max_splits = 5;
  GreedyPlanner greedy(est, cm, hopts);
  const CompiledPlan plan = CompiledPlan::Compile(greedy.BuildPlan(q));
  std::vector<RowId> rows(test.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;

  const char* kCounters[] = {"exec.tuples",      "exec.acquisitions",
                             "exec.retries",     "exec.failed_attributes",
                             "exec.aborts",      "exec.unknown_verdicts",
                             "fault.injected"};
  const auto counters = [&] {
    std::vector<uint64_t> out;
    for (const char* name : kCounters) {
      out.push_back(obs::DefaultRegistry().GetCounter(name).value());
    }
    return out;
  };
  const auto delta = [](const std::vector<uint64_t>& after,
                        const std::vector<uint64_t>& before) {
    std::vector<uint64_t> out(after.size());
    for (size_t i = 0; i < after.size(); ++i) out[i] = after[i] - before[i];
    return out;
  };

  for (const char* profile_text : kFaultProfiles) {
    const FaultSpec spec = ParseProfile(profile_text);
    const FaultRealization faults(FaultInjector(spec), rows,
                                  schema.num_attributes());
    for (const DegradationPolicy& policy : kFaultPolicies) {
      SCOPED_TRACE(std::string(profile_text) + " policy=" +
                   std::to_string(static_cast<int>(policy.mode)));
      ExecutionProfile scalar_profile(plan.NumNodes());
      std::vector<uint8_t> want_verdicts;
      const std::vector<uint64_t> s0 = counters();
      PerRowOracle(plan, test, cm, rows, &spec, policy, &want_verdicts,
                   &scalar_profile);
      const std::vector<uint64_t> want_counters = delta(counters(), s0);
      const ExecutionProfileSnapshot want = scalar_profile.Snapshot();

      ExecutionProfile batch_profile(plan.NumNodes());
      ColumnarBatchExecutor exec(plan, test, cm);
      BatchExecOptions opts;
      opts.profile = &batch_profile;
      opts.faults = &faults;
      opts.policy = policy;
      const std::vector<uint64_t> b0 = counters();
      exec.Execute(rows, nullptr, opts);
      EXPECT_EQ(delta(counters(), b0), want_counters);
      const ExecutionProfileSnapshot got = batch_profile.Snapshot();

      ASSERT_EQ(got.nodes.size(), want.nodes.size());
      for (size_t i = 0; i < want.nodes.size(); ++i) {
        EXPECT_EQ(got.nodes[i].evals, want.nodes[i].evals) << "node " << i;
        EXPECT_EQ(got.nodes[i].passes, want.nodes[i].passes) << "node " << i;
        EXPECT_EQ(got.nodes[i].unknowns, want.nodes[i].unknowns)
            << "node " << i;
      }
      EXPECT_EQ(got.attr_evals, want.attr_evals);
      EXPECT_EQ(got.attr_passes, want.attr_passes);
      EXPECT_EQ(got.executions, want.executions);
      EXPECT_EQ(got.unknown_executions, want.unknown_executions);
      EXPECT_EQ(got.acquisitions, want.acquisitions);
      EXPECT_EQ(got.realized_cost, want.realized_cost);
    }
  }
}

TEST(BatchExecFaultTest, OneExecutorAlternatesFaultFreeAndFaultModeCalls) {
  // A fault-free call sizes only the selection scratch, so a later
  // fault-mode call on the same executor, at the same or a smaller chunk
  // capacity, must still size its routing and divert buffers.
  const Schema schema = testing_util::SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 1500, 11);
  const auto [train, test] = data.SplitFraction(0.5);
  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  Rng rng(7);
  const CompiledPlan plan = CompiledPlan::Compile(
      planner.BuildPlan(testing_util::RandomConjunctiveQuery(schema, rng)));
  std::vector<RowId> rows(test.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
  std::mt19937 shuffle_rng(1907u);
  std::shuffle(rows.begin(), rows.end(), shuffle_rng);

  const FaultSpec spec = ParseProfile(kFaultProfiles[0]);
  const DegradationPolicy policy = DegradationPolicy::Retry(3, 1.5);
  const FaultRealization faults(FaultInjector(spec), rows,
                                schema.num_attributes());
  std::vector<uint8_t> want_faulty_verdicts;
  const BatchExecutionStats want_faulty =
      PerRowOracle(plan, test, cm, rows, &spec, policy, &want_faulty_verdicts);
  ASSERT_GT(want_faulty.faults_injected, 0u);
  std::vector<uint8_t> want_clean_verdicts;
  const BatchExecutionStats want_clean =
      ColumnarBatchExecutor(plan, test, cm).Execute(rows,
                                                    &want_clean_verdicts);

  ColumnarBatchExecutor exec(plan, test, cm);
  const struct {
    bool faulty;
    size_t chunk;
  } calls[] = {{false, 0}, {true, 7}, {true, 0}, {false, 7}, {true, 1}};
  for (const auto& call : calls) {
    SCOPED_TRACE(std::string(call.faulty ? "faulty" : "fault-free") +
                 " chunk=" + std::to_string(call.chunk));
    BatchExecOptions call_opts;
    call_opts.chunk_size = call.chunk;
    if (call.faulty) {
      call_opts.faults = &faults;
      call_opts.policy = policy;
    }
    std::vector<uint8_t> got_verdicts;
    ExpectSameStats(exec.Execute(rows, &got_verdicts, call_opts),
                    call.faulty ? want_faulty : want_clean);
    EXPECT_EQ(got_verdicts,
              call.faulty ? want_faulty_verdicts : want_clean_verdicts);
  }
}

}  // namespace
}  // namespace caqp
