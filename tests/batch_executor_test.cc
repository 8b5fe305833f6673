// Columnar batch executor tests: BatchPlanView structural invariants, and
// the differential contract — ColumnarBatchExecutor::Execute must agree with
// scalar ExecuteBatch bit for bit (verdicts, matches, acquisitions, acquired
// union, total_cost as an exact double) across planners, datasets, chunk
// sizes, and row orders. Consecutive-row batches exercise the masked
// AVX-512 engine where the CPU has it; shuffled and strided batches pin the
// selection-vector kernels; both must produce identical results. Fault mode
// must agree, just as exactly, with per-row ExecutePlan over a row-keyed
// FaultyAcquisitionSource across fault profiles and degradation policies.

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
// Differential: columnar vs scalar oracle

/// Chunk sizes crossing every boundary case: single-row chunks, a size that
/// leaves ragged tails, the default, and one chunk for the whole batch.
constexpr size_t kChunkSizes[] = {1, 7, 1024, 0};

void ExpectMatchesScalar(const CompiledPlan& plan, const Dataset& data,
                         const AcquisitionCostModel& cm,
                         std::span<const RowId> rows) {
  std::vector<uint8_t> want_verdicts;
  const BatchExecutionStats want =
      ExecuteBatch(plan, data, rows, cm, &want_verdicts);

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
    // Exact, not approximate: the cost tables replay the scalar addition
    // sequence and the final sum runs in row order.
    EXPECT_EQ(got.total_cost, want.total_cost) << "chunk=" << chunk;
    EXPECT_EQ(got_verdicts, want_verdicts) << "chunk=" << chunk;

    // The verdict-free entry point must produce the same stats.
    const BatchExecutionStats no_verdicts = exec.Execute(rows, nullptr, opts);
    EXPECT_EQ(no_verdicts.matches, want.matches) << "chunk=" << chunk;
    EXPECT_EQ(no_verdicts.total_cost, want.total_cost) << "chunk=" << chunk;
  }
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
  ExpectMatchesScalar(plan, data, cm, ids);

  const size_t base = std::min<size_t>(17, n / 2);
  ExpectMatchesScalar(
      plan, data, cm,
      std::span<const RowId>(ids.data() + base, n - base));

  std::vector<RowId> shuffled = ids;
  std::mt19937 rng(20050405u);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ExpectMatchesScalar(plan, data, cm, shuffled);

  std::vector<RowId> strided;
  for (size_t r = 0; r < n; r += 3) strided.push_back(static_cast<RowId>(r));
  ExpectMatchesScalar(plan, data, cm, strided);
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
  for (int i = 0; i < 6; ++i) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    const CompiledPlan compiled = CompiledPlan::Compile(planner.BuildPlan(q));
    ExpectAllRowOrdersMatch(compiled, test, cm);
  }
}

TEST(BatchExecDifferentialTest, HandBuiltGenericLeafDisjunction) {
  // Deterministic GenericKernel coverage (the exhaustive planner does not
  // always emit residual-query leaves): a disjunction leaf below a split,
  // where the leaf must reuse the split-path value and short-circuit as
  // soon as the three-valued evaluation resolves.
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
  ExpectMatchesScalar(compiled, data, cm, std::span<const RowId>(&one, 1));
}

// ---------------------------------------------------------------------------
// Profile parity

TEST(BatchExecProfileTest, CountersMatchPerTupleProfiledRun) {
  obs::SetEnabled(true);
  if (!obs::Enabled()) GTEST_SKIP() << "obs compiled out";

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

  std::vector<RowId> ids(test.num_rows());
  for (RowId r = 0; r < ids.size(); ++r) ids[r] = r;

  for (const Query& q : queries) {
    const CompiledPlan compiled = CompiledPlan::Compile(planner.BuildPlan(q));

    ExecutionProfile scalar_profile(compiled.NumNodes());
    for (const RowId r : ids) {
      const Tuple t = test.GetTuple(r);
      TupleSource src(t);
      ExecutePlan(compiled, schema, cm, src, nullptr, {}, &scalar_profile);
    }
    const ExecutionProfileSnapshot want = scalar_profile.Snapshot();

    // Both row orders — masked and selection engines must produce the same
    // counters (shuffling rows permutes per-tuple work, not its totals).
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
    "spike=0.2,spike_mult=3,seed=14"};

const DegradationPolicy kFaultPolicies[] = {DegradationPolicy::UnknownVerdict(),
                                            DegradationPolicy::Retry(3, 1.5),
                                            DegradationPolicy::Abort()};

FaultSpec ParseProfile(const char* text) {
  const Result<FaultSpec> spec = FaultSpec::Parse(text);
  CAQP_CHECK(spec.ok());
  return spec.value();
}

/// The per-row oracle folded into BatchExecutionStats form: one ExecutePlan
/// per row, row-keyed draws, costs summed in row order.
BatchExecutionStats PerRowOracle(const CompiledPlan& plan, const Dataset& data,
                                 const AcquisitionCostModel& cm,
                                 std::span<const RowId> rows,
                                 const FaultSpec& spec,
                                 const DegradationPolicy& policy,
                                 std::vector<uint8_t>* verdicts,
                                 ExecutionProfile* profile = nullptr) {
  RowSource base(data);
  FaultInjector injector(spec);
  FaultyAcquisitionSource source(base, injector);
  BatchExecutionStats want;
  want.tuples = rows.size();
  verdicts->clear();
  for (const RowId row : rows) {
    base.SetRow(row);
    source.SetRow(row);
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
  want.faults_injected = injector.injected();
  return want;
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
    const FaultInjector faults(spec);
    for (const DegradationPolicy& policy : kFaultPolicies) {
      for (const std::vector<RowId>* rows :
           {&consecutive, &shuffled, &strided}) {
        SCOPED_TRACE(std::string(profile) + " policy=" +
                     std::to_string(static_cast<int>(policy.mode)) +
                     " rows=" + std::to_string(rows->size()));
        std::vector<uint8_t> want_verdicts;
        const BatchExecutionStats want = PerRowOracle(
            plan, data, cm, *rows, spec, policy, &want_verdicts);
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
  for (int i = 0; i < 2; ++i) {
    const Query q = testing_util::RandomConjunctiveQuery(schema, rng);
    ExpectFaultModeMatches(CompiledPlan::Compile(planner.BuildPlan(q)), test,
                           cm);
  }
  // A residual-query leaf below a split, for certain generic coverage.
  Query q = Query::Disjunction({{Predicate(0, 3, 3)}, {Predicate(3, 4, 4)}});
  auto root = PlanNode::Split(0, 2, PlanNode::Verdict(false),
                              PlanNode::Generic(q, {0, 3}));
  ExpectFaultModeMatches(CompiledPlan::Compile(Plan(std::move(root))), test,
                         cm);
}

TEST(BatchExecFaultTest, ProfileAndObsCountersMatchPerRowPath) {
  obs::SetEnabled(true);
  if (!obs::Enabled()) GTEST_SKIP() << "obs compiled out";
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
    const FaultInjector faults(spec);
    for (const DegradationPolicy& policy : kFaultPolicies) {
      SCOPED_TRACE(std::string(profile_text) + " policy=" +
                   std::to_string(static_cast<int>(policy.mode)));
      ExecutionProfile scalar_profile(plan.NumNodes());
      std::vector<uint8_t> want_verdicts;
      const std::vector<uint64_t> s0 = counters();
      PerRowOracle(plan, test, cm, rows, spec, policy, &want_verdicts,
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

}  // namespace
}  // namespace caqp
