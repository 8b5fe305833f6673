// caqp::dist tests: result-merge semantics, row partitioning, the shard
// health machine, ExecutionResult wire round-trips, and the Coordinator end
// to end — including the merge-equivalence matrices (N-shard scatter-gather
// must agree with single-process per-row ExecutePlan, with and without
// row-level faults, for every partitioning), the fault-path tests
// that hold the degradation invariant (no defined verdict is ever wrong)
// under dead and straggling shards, and the verdict-buffer contract: summed
// counts equal a recount of the verdicts, a straggler's late writes never
// reach a response, and a rejected reply's rows return to Unknown. Every
// suite is named Dist* so scripts/check.sh can select them for the TSan
// build with ctest -R '^Dist'.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/query_signature.h"
#include "dist/coordinator.h"
#include "dist/health.h"
#include "dist/merge.h"
#include "dist/partition.h"
#include "dist/shard.h"
#include "exec/executor.h"
#include "exec/result_serde.h"
#include "obs/registry.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/split_points.h"
#include "prob/chow_liu.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace caqp {
namespace {

using dist::Coordinator;
using dist::ExecutorShard;
using dist::MergeExecutionResults;
using dist::MergeIdentity;
using dist::PartitionRows;
using dist::PartitionSpec;
using dist::ShardForRow;
using dist::ShardFaultSpec;
using dist::ShardHealth;
using dist::UnknownShardResult;

// ---------------------------------------------------------------------------
// Merge semantics
// ---------------------------------------------------------------------------

ExecutionResult ResultWith(Truth v3, double cost = 0.0, int acq = 0) {
  ExecutionResult r;
  r.verdict3 = v3;
  r.verdict = v3 == Truth::kTrue;
  r.cost = cost;
  r.acquisitions = acq;
  return r;
}

TEST(DistMergeTest, VerdictFollowsThreeValuedOr) {
  const Truth kVals[] = {Truth::kFalse, Truth::kTrue, Truth::kUnknown};
  for (Truth a : kVals) {
    for (Truth b : kVals) {
      const ExecutionResult m =
          MergeExecutionResults(ResultWith(a), ResultWith(b));
      EXPECT_EQ(m.verdict3, TruthOr(a, b));
      EXPECT_EQ(m.verdict, m.verdict3 == Truth::kTrue);
    }
  }
}

TEST(DistMergeTest, DefinedVerdictsNeverFlip) {
  // kTrue absorbs everything; kFalse can only weaken to kUnknown.
  EXPECT_EQ(MergeExecutionResults(ResultWith(Truth::kTrue),
                                  ResultWith(Truth::kUnknown))
                .verdict3,
            Truth::kTrue);
  EXPECT_EQ(MergeExecutionResults(ResultWith(Truth::kFalse),
                                  ResultWith(Truth::kUnknown))
                .verdict3,
            Truth::kUnknown);
  EXPECT_EQ(MergeExecutionResults(ResultWith(Truth::kFalse),
                                  ResultWith(Truth::kFalse))
                .verdict3,
            Truth::kFalse);
}

TEST(DistMergeTest, IdentityLeavesResultUnchanged) {
  ExecutionResult r = ResultWith(Truth::kTrue, 12.5, 3);
  r.retries = 2;
  r.aborted = false;
  r.acquired.Insert(1);
  r.acquired.Insert(3);
  r.failed.Insert(2);
  for (const ExecutionResult& m :
       {MergeExecutionResults(MergeIdentity(), r),
        MergeExecutionResults(r, MergeIdentity())}) {
    EXPECT_EQ(m.verdict3, r.verdict3);
    EXPECT_EQ(m.verdict, r.verdict);
    EXPECT_EQ(m.aborted, r.aborted);
    EXPECT_EQ(m.cost, r.cost);
    EXPECT_EQ(m.acquisitions, r.acquisitions);
    EXPECT_EQ(m.retries, r.retries);
    EXPECT_EQ(m.acquired.bits, r.acquired.bits);
    EXPECT_EQ(m.failed.bits, r.failed.bits);
  }
}

TEST(DistMergeTest, CostsSumAndSetsUnion) {
  ExecutionResult a = ResultWith(Truth::kFalse, 10.0, 2);
  a.retries = 1;
  a.acquired.Insert(0);
  a.failed.Insert(3);
  ExecutionResult b = ResultWith(Truth::kTrue, 2.5, 1);
  b.retries = 4;
  b.aborted = true;
  b.acquired.Insert(1);
  b.failed.Insert(3);

  const ExecutionResult m = MergeExecutionResults(a, b);
  EXPECT_EQ(m.verdict3, Truth::kTrue);
  EXPECT_TRUE(m.aborted);
  EXPECT_DOUBLE_EQ(m.cost, 12.5);
  EXPECT_EQ(m.acquisitions, 3);
  EXPECT_EQ(m.retries, 5);
  EXPECT_TRUE(m.acquired.Contains(0));
  EXPECT_TRUE(m.acquired.Contains(1));
  EXPECT_EQ(m.acquired.Count(), 2u);
  EXPECT_TRUE(m.failed.Contains(3));
  EXPECT_EQ(m.failed.Count(), 1u);
}

TEST(DistMergeTest, CommutativeAndAssociative) {
  ExecutionResult a = ResultWith(Truth::kFalse, 1.0, 1);
  ExecutionResult b = ResultWith(Truth::kUnknown, 2.0, 2);
  ExecutionResult c = ResultWith(Truth::kTrue, 4.0, 4);
  const ExecutionResult ab_c =
      MergeExecutionResults(MergeExecutionResults(a, b), c);
  const ExecutionResult a_bc =
      MergeExecutionResults(a, MergeExecutionResults(b, c));
  const ExecutionResult ba_c =
      MergeExecutionResults(MergeExecutionResults(b, a), c);
  EXPECT_EQ(ab_c.verdict3, a_bc.verdict3);
  EXPECT_DOUBLE_EQ(ab_c.cost, a_bc.cost);
  EXPECT_EQ(ab_c.acquisitions, a_bc.acquisitions);
  EXPECT_EQ(ab_c.verdict3, ba_c.verdict3);
  EXPECT_EQ(ab_c.acquisitions, ba_c.acquisitions);
}

TEST(DistMergeTest, UnknownShardResultCannotClaimAnything) {
  const ExecutionResult u = UnknownShardResult();
  EXPECT_EQ(u.verdict3, Truth::kUnknown);
  EXPECT_FALSE(u.verdict);
  EXPECT_EQ(u.cost, 0.0);
  EXPECT_EQ(u.acquisitions, 0);
  EXPECT_EQ(u.acquired.Count(), 0u);
  // Merging a lost shard weakens kFalse but never flips kTrue.
  EXPECT_EQ(MergeExecutionResults(ResultWith(Truth::kTrue), u).verdict3,
            Truth::kTrue);
  EXPECT_EQ(MergeExecutionResults(ResultWith(Truth::kFalse), u).verdict3,
            Truth::kUnknown);
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(DistPartitionTest, PartitionIsDisjointAndComplete) {
  for (const PartitionSpec& spec :
       {PartitionSpec::Hash(1), PartitionSpec::Hash(3), PartitionSpec::Hash(8),
        PartitionSpec::Range(1), PartitionSpec::Range(3),
        PartitionSpec::Range(8)}) {
    for (size_t rows : {0u, 1u, 7u, 100u, 1000u}) {
      const auto parts = PartitionRows(spec, rows);
      ASSERT_EQ(parts.size(), spec.num_shards);
      std::vector<int> seen(rows, 0);
      for (size_t s = 0; s < parts.size(); ++s) {
        for (size_t i = 0; i < parts[s].size(); ++i) {
          const RowId r = parts[s][i];
          ASSERT_LT(r, rows);
          ++seen[r];
          EXPECT_EQ(ShardForRow(spec, rows, r), s);
          if (i > 0) {
            EXPECT_LT(parts[s][i - 1], r);  // ascending
          }
        }
      }
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(seen[r], 1) << "row " << r << " covered " << seen[r]
                              << " times";
      }
    }
  }
}

TEST(DistPartitionTest, DeterministicAcrossCalls) {
  const PartitionSpec spec = PartitionSpec::Hash(4);
  EXPECT_EQ(PartitionRows(spec, 500), PartitionRows(spec, 500));
}

TEST(DistPartitionTest, RangeBlocksAreContiguous) {
  const auto parts = PartitionRows(PartitionSpec::Range(4), 10);
  // ceil(10/4) = 3 rows per block: [0..2][3..5][6..8][9].
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], (std::vector<RowId>{0, 1, 2}));
  EXPECT_EQ(parts[1], (std::vector<RowId>{3, 4, 5}));
  EXPECT_EQ(parts[2], (std::vector<RowId>{6, 7, 8}));
  EXPECT_EQ(parts[3], (std::vector<RowId>{9}));
}

TEST(DistPartitionTest, HashSeedChangesPlacement) {
  PartitionSpec a = PartitionSpec::Hash(4);
  PartitionSpec b = PartitionSpec::Hash(4);
  b.hash_seed = 12345;
  EXPECT_NE(PartitionRows(a, 1000), PartitionRows(b, 1000));
}

TEST(DistPartitionTest, ParseScheme) {
  ASSERT_TRUE(PartitionSpec::ParseScheme("hash").ok());
  EXPECT_EQ(PartitionSpec::ParseScheme("hash").value(),
            PartitionSpec::Scheme::kHash);
  ASSERT_TRUE(PartitionSpec::ParseScheme("range").ok());
  EXPECT_EQ(PartitionSpec::ParseScheme("range").value(),
            PartitionSpec::Scheme::kRange);
  EXPECT_FALSE(PartitionSpec::ParseScheme("ring").ok());
  EXPECT_FALSE(PartitionSpec::ParseScheme("").ok());
}

// ---------------------------------------------------------------------------
// Shard health machine
// ---------------------------------------------------------------------------

TEST(DistHealthTest, DegradesThenDiesThenRecovers) {
  ShardHealth::Policy policy;
  policy.dead_after = 3;
  policy.recover_after = 2;
  policy.probe_every = 4;
  ShardHealth h(policy);
  EXPECT_EQ(h.state(), ShardHealth::State::kHealthy);
  EXPECT_TRUE(h.ShouldAttempt(1));

  EXPECT_EQ(h.OnFailure(), ShardHealth::State::kDegraded);
  EXPECT_TRUE(h.ShouldAttempt(1));  // degraded shards are still attempted
  EXPECT_EQ(h.OnFailure(), ShardHealth::State::kDegraded);
  EXPECT_EQ(h.OnFailure(), ShardHealth::State::kDead);

  // Dead: only probe slots are attempted.
  EXPECT_FALSE(h.ShouldAttempt(1));
  EXPECT_FALSE(h.ShouldAttempt(5));
  EXPECT_TRUE(h.ShouldAttempt(4));
  EXPECT_TRUE(h.ShouldAttempt(8));

  // A successful probe revives into kDegraded, then recover_after
  // consecutive successes earn kHealthy back.
  EXPECT_EQ(h.OnSuccess(), ShardHealth::State::kDegraded);
  EXPECT_EQ(h.OnSuccess(), ShardHealth::State::kHealthy);
  EXPECT_TRUE(h.ShouldAttempt(1));
}

TEST(DistHealthTest, FlappingStaysDegraded) {
  ShardHealth::Policy policy;
  policy.dead_after = 3;
  policy.recover_after = 2;
  ShardHealth h(policy);
  for (int i = 0; i < 10; ++i) {
    h.OnFailure();
    EXPECT_EQ(h.OnSuccess(), ShardHealth::State::kDegraded)
        << "alternating streaks must not reach kHealthy or kDead";
  }
}

TEST(DistHealthTest, ProbeDisabledMeansDeadStaysDead) {
  ShardHealth::Policy policy;
  policy.dead_after = 1;
  policy.probe_every = 0;
  ShardHealth h(policy);
  EXPECT_EQ(h.OnFailure(), ShardHealth::State::kDead);
  for (uint64_t seq = 0; seq < 64; ++seq) EXPECT_FALSE(h.ShouldAttempt(seq));
}

TEST(DistHealthTest, LongRunsSaturateStreaks) {
  ShardHealth h;  // default policy
  for (int i = 0; i < 1000; ++i) h.OnFailure();
  EXPECT_EQ(h.state(), ShardHealth::State::kDead);
  h.OnSuccess();  // probe
  EXPECT_EQ(h.state(), ShardHealth::State::kDegraded);
}

// ---------------------------------------------------------------------------
// ExecutionResult wire round-trip (deterministic cases; mutation fuzzing
// lives in serde_fuzz_test.cc)
// ---------------------------------------------------------------------------

TEST(DistResultSerdeTest, RoundTripsEveryVerdict) {
  for (Truth v3 : {Truth::kFalse, Truth::kTrue, Truth::kUnknown}) {
    ExecutionResult r = ResultWith(v3, 123.456, 3);
    r.retries = 7;
    r.aborted = v3 == Truth::kUnknown;
    r.acquired.Insert(0);
    r.acquired.Insert(5);
    r.failed.Insert(2);
    const std::vector<uint8_t> bytes = SerializeExecutionResult(r);
    const Result<ExecutionResult> back = DeserializeExecutionResult(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().verdict3, r.verdict3);
    EXPECT_EQ(back.value().verdict, r.verdict);
    EXPECT_EQ(back.value().aborted, r.aborted);
    EXPECT_EQ(back.value().cost, r.cost);
    EXPECT_EQ(back.value().acquisitions, r.acquisitions);
    EXPECT_EQ(back.value().retries, r.retries);
    EXPECT_EQ(back.value().acquired.bits, r.acquired.bits);
    EXPECT_EQ(back.value().failed.bits, r.failed.bits);
  }
}

TEST(DistResultSerdeTest, RejectsCorruptEncodings) {
  const std::vector<uint8_t> good =
      SerializeExecutionResult(ResultWith(Truth::kTrue, 1.0, 1));
  ASSERT_TRUE(DeserializeExecutionResult(good).ok());

  // Wrong version byte.
  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeExecutionResult(bad).ok());

  // verdict3 out of range.
  bad = good;
  bad[1] = 3;
  EXPECT_FALSE(DeserializeExecutionResult(bad).ok());

  // Reserved flag bits must be zero.
  bad = good;
  bad[2] |= 0x80;
  EXPECT_FALSE(DeserializeExecutionResult(bad).ok());

  // Truncation at every prefix length.
  for (size_t n = 0; n < good.size(); ++n) {
    const std::vector<uint8_t> prefix(good.begin(), good.begin() + n);
    EXPECT_FALSE(DeserializeExecutionResult(prefix).ok()) << "prefix " << n;
  }

  // Trailing garbage.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(DeserializeExecutionResult(bad).ok());

  // `good` with flags bit 1 set and a well-formed trace-context tail
  // appended (trace id 42, root span (7 << 22) + 1, parent span 3). Bit 1
  // is reserved, so the reply is rejected.
  const std::vector<uint8_t> traced = {
      0xE5, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
      0x01, 0x00, 0x00, 0x00, 0x2A, 0x81, 0x80, 0x80, 0x0E, 0x03};
  EXPECT_FALSE(DeserializeExecutionResult(traced).ok());
}

// ---------------------------------------------------------------------------
// Shard fault-profile mini-language
// ---------------------------------------------------------------------------

TEST(DistFaultSpecTest, ParsesKillAndDelay) {
  const Result<ShardFaultSpec> spec =
      ShardFaultSpec::Parse("kill@1=3,delay@2=50");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().entries.size(), 2u);
  const ShardFaultSpec::Entry* kill = spec.value().FindEntry(1);
  ASSERT_NE(kill, nullptr);
  EXPECT_EQ(kill->kill_after, 3);
  const ShardFaultSpec::Entry* delay = spec.value().FindEntry(2);
  ASSERT_NE(delay, nullptr);
  EXPECT_DOUBLE_EQ(delay->delay_seconds, 0.05);
  EXPECT_EQ(spec.value().FindEntry(0), nullptr);
}

TEST(DistFaultSpecTest, KillDefaultsToImmediate) {
  const Result<ShardFaultSpec> spec = ShardFaultSpec::Parse("kill@0");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec.value().entries.size(), 1u);
  EXPECT_EQ(spec.value().entries[0].kill_after, 0);
}

TEST(DistFaultSpecTest, RejectsMalformedDirectives) {
  EXPECT_FALSE(ShardFaultSpec::Parse("explode@1").ok());
  EXPECT_FALSE(ShardFaultSpec::Parse("kill@x").ok());
  EXPECT_FALSE(ShardFaultSpec::Parse("delay@1").ok());
  EXPECT_FALSE(ShardFaultSpec::Parse("delay@1=abc").ok());
  // Numbers past 2^64-1 must not wrap: these read as kill@1=0 and a zero
  // delay before the overflow check.
  EXPECT_FALSE(ShardFaultSpec::Parse("kill@18446744073709551617").ok());
  EXPECT_FALSE(ShardFaultSpec::Parse("delay@0=18446744073709551616").ok());
  EXPECT_FALSE(ShardFaultSpec::Parse("kill@0=18446744073709551616").ok());
  // kill_after is signed; a count past INT64_MAX would read as "never".
  EXPECT_FALSE(ShardFaultSpec::Parse("kill@0=9223372036854775808").ok());
  EXPECT_TRUE(ShardFaultSpec::Parse("kill@0=9223372036854775807").ok());
}

TEST(DistFaultSpecTest, RoundTripsThroughToString) {
  const Result<ShardFaultSpec> spec =
      ShardFaultSpec::Parse("kill@1=3,delay@2=50");
  ASSERT_TRUE(spec.ok());
  const Result<ShardFaultSpec> again =
      ShardFaultSpec::Parse(spec.value().ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().entries.size(), spec.value().entries.size());
}

// ---------------------------------------------------------------------------
// Coordinator end to end
// ---------------------------------------------------------------------------

struct DistFixture {
  Schema schema = testing_util::SmallSchema();
  Dataset data = testing_util::CorrelatedDataset(schema, 6000, 17);
  PerAttributeCostModel cm{schema};
  SplitPointSet splits = SplitPointSet::AllPoints(schema);
  GreedySeqSolver solver;
  ChowLiuEstimator estimator{data};
  std::unique_ptr<GreedyPlanner> greedy;
  std::unique_ptr<NaivePlanner> naive;

  DistFixture() {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &solver;
    opts.max_splits = 3;
    greedy = std::make_unique<GreedyPlanner>(estimator, cm, opts);
    naive = std::make_unique<NaivePlanner>(estimator, cm);
  }

  serve::PlanBuilderFactory Factory(const Planner& planner,
                                    uint64_t fingerprint) {
    return [&planner, fingerprint] {
      return std::make_unique<serve::SharedPlannerBuilder>(planner,
                                                           fingerprint);
    };
  }

  Coordinator MakeCoordinator(Coordinator::Options opts,
                              const Planner* planner = nullptr) {
    const Planner& p = planner != nullptr ? *planner : *greedy;
    return Coordinator(data, cm, Factory(p, 21), std::move(opts));
  }

  Query MidQuery() const {
    return Query::Conjunction(
        {Predicate(2, 1, 3), Predicate(3, 2, 4), Predicate(0, 1, 2)});
  }
};

/// Shards report their match and Unknown counts and write their verdicts
/// into the response's buffer separately; the coordinator sums the counts.
/// They must agree with a recount of the verdicts the response holds.
::testing::AssertionResult CountsMatchVerdicts(
    const Coordinator::Response& resp) {
  size_t matches = 0;
  size_t unknown = 0;
  for (Truth t : resp.row_verdicts) {
    matches += t == Truth::kTrue;
    unknown += t == Truth::kUnknown;
  }
  if (resp.matches == matches && resp.unknown_rows == unknown) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "matches " << resp.matches << " vs recount " << matches
         << ", unknown_rows " << resp.unknown_rows << " vs recount "
         << unknown;
}

/// Checks one distributed response against single-process per-row
/// ExecutePlan run with the *same compiled plan* over all rows, costs summed
/// in row order: row verdicts, match count, acquisition counts exact; total
/// cost within FP-reassociation tolerance (shards sum their partitions
/// independently, so cross-shard addition order differs from the flat
/// row-order fold).
void ExpectMatchesPerRow(const DistFixture& fx, const Query& q,
                         const Coordinator::Response& resp) {
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  ASSERT_NE(resp.plan, nullptr);
  ASSERT_EQ(resp.row_verdicts.size(), fx.data.num_rows());

  RowSource source(fx.data);
  std::vector<uint8_t> verdicts;
  BatchExecutionStats stats;
  for (RowId r = 0; r < fx.data.num_rows(); ++r) {
    source.SetRow(r);
    const ExecutionResult res =
        ExecutePlan(*resp.plan, fx.schema, fx.cm, source);
    verdicts.push_back(res.verdict ? 1 : 0);
    stats.matches += res.verdict;
    stats.total_acquisitions += static_cast<size_t>(res.acquisitions);
    stats.total_cost += res.cost;
  }

  size_t matches = 0;
  for (RowId r = 0; r < fx.data.num_rows(); ++r) {
    ASSERT_NE(resp.row_verdicts[r], Truth::kUnknown)
        << "fault-free run degraded row " << r;
    EXPECT_EQ(resp.row_verdicts[r] == Truth::kTrue, verdicts[r] != 0)
        << "row " << r;
    // Ground truth, independently of the plan.
    EXPECT_EQ(resp.row_verdicts[r] == Truth::kTrue,
              q.Matches(fx.data.GetTuple(r)))
        << "row " << r;
    if (verdicts[r] != 0) ++matches;
  }
  EXPECT_EQ(resp.matches, matches);
  EXPECT_EQ(resp.matches, stats.matches);
  EXPECT_EQ(resp.unknown_rows, 0u);
  EXPECT_TRUE(CountsMatchVerdicts(resp));
  EXPECT_EQ(static_cast<size_t>(resp.merged.acquisitions),
            stats.total_acquisitions);
  EXPECT_EQ(resp.merged.verdict3,
            matches > 0 ? Truth::kTrue : Truth::kFalse);
  EXPECT_NEAR(resp.merged.cost, stats.total_cost,
              1e-9 * (1.0 + std::abs(stats.total_cost)));
}

TEST(DistCoordinatorTest, MergeEquivalenceMatrix) {
  DistFixture fx;
  const Planner* planners[] = {fx.greedy.get(), fx.naive.get()};
  const PartitionSpec specs[] = {
      PartitionSpec::Hash(1), PartitionSpec::Hash(4), PartitionSpec::Range(2),
      PartitionSpec::Range(4)};
  for (const Planner* planner : planners) {
    for (const PartitionSpec& spec : specs) {
      Coordinator::Options opts;
      opts.partition = spec;
      Coordinator coord = fx.MakeCoordinator(opts, planner);
      ASSERT_EQ(coord.num_shards(), spec.num_shards);

      Rng rng(91);
      for (int i = 0; i < 8; ++i) {
        const Query q =
            i == 0 ? fx.MidQuery()
                   : testing_util::RandomConjunctiveQuery(fx.schema, rng);
        const Coordinator::Response resp = coord.Execute(q);
        SCOPED_TRACE(std::string(planner->Name()) + " scheme=" +
                     dist::PartitionSchemeName(spec.scheme) + " shards=" +
                     std::to_string(spec.num_shards) + " query=" +
                     std::to_string(i));
        EXPECT_EQ(resp.shards_ok, spec.num_shards);
        EXPECT_FALSE(resp.degraded());
        ExpectMatchesPerRow(fx, q, resp);
      }
    }
  }
}

TEST(DistCoordinatorTest, PlanCacheAndSingleFlightAreUsed) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(3);
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();

  const Coordinator::Response first = coord.Execute(q);
  EXPECT_TRUE(first.planned);
  EXPECT_FALSE(first.cache_hit);
  const Coordinator::Response second = coord.Execute(q);
  EXPECT_FALSE(second.planned);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.plan, first.plan);
  EXPECT_EQ(second.query_sig, first.query_sig);

  // Shuffled predicates canonicalize to the same signature and plan.
  const Query shuffled = Query::Conjunction(
      {Predicate(0, 1, 2), Predicate(2, 1, 3), Predicate(3, 2, 4)});
  const Coordinator::Response third = coord.Execute(shuffled);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.plan, first.plan);

  const dist::DistReport report = coord.Report();
  EXPECT_EQ(report.queries, 3u);
  EXPECT_EQ(report.planned, 1u);
  EXPECT_EQ(report.cache_hits, 2u);
}

/// Counts Build() calls across every bundle of one coordinator.
class CountingPlanBuilder : public serve::SharedPlannerBuilder {
 public:
  CountingPlanBuilder(const Planner& planner, std::atomic<size_t>& builds)
      : SharedPlannerBuilder(planner, /*fingerprint=*/21), builds_(builds) {}
  Plan Build(const Query& query) override {
    builds_.fetch_add(1);
    return SharedPlannerBuilder::Build(query);
  }

 private:
  std::atomic<size_t>& builds_;
};

// Client threads race on cold queries: cache + single-flight (with the
// leader's cache re-check) build each distinct query exactly once, and only
// the request that built a plan reports `planned`.
TEST(DistCoordinatorTest, ConcurrentColdQueriesBuildEachQueryOnce) {
  DistFixture fx;
  std::vector<Query> queries;
  for (AttrId a = 0; a < fx.schema.num_attributes(); ++a) {
    for (Value lo = 0; lo + 1u < fx.schema.domain_size(a); ++lo) {
      queries.push_back(Query::Conjunction(
          {Predicate(a, lo, static_cast<Value>(lo + 1))}));
    }
  }
  for (Value lo = 0; lo < 3; ++lo) {
    for (Value lo2 = 0; lo2 < 3; ++lo2) {
      queries.push_back(Query::Conjunction(
          {Predicate(0, lo, static_cast<Value>(lo + 1)),
           Predicate(2, lo2, static_cast<Value>(lo2 + 1)),
           Predicate(3, 1, 3)}));
    }
  }
  std::unordered_set<uint64_t> distinct;
  for (const Query& q : queries) distinct.insert(QuerySignature(q));
  ASSERT_EQ(distinct.size(), queries.size());

  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(2);
  std::atomic<size_t> builds{0};
  const Planner& planner = *fx.greedy;
  Coordinator coord(
      fx.data, fx.cm,
      [&planner, &builds] {
        return std::make_unique<CountingPlanBuilder>(planner, builds);
      },
      opts);

  constexpr size_t kClients = 6;
  std::atomic<size_t> planned{0};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (const Query& q : queries) {
        if (coord.Execute(q).planned) planned.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(builds.load(), queries.size());
  EXPECT_EQ(planned.load(), queries.size());
  EXPECT_EQ(coord.Report().planned, queries.size());
  EXPECT_EQ(coord.Report().queries, kClients * queries.size());
}

TEST(DistCoordinatorTest, InvalidateCacheForcesReplan) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(2);
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();

  const uint64_t v0 = coord.estimator_version();
  coord.Execute(q);
  coord.InvalidateCache();
  EXPECT_GT(coord.estimator_version(), v0);
  const Coordinator::Response resp = coord.Execute(q);
  EXPECT_TRUE(resp.planned);
  EXPECT_FALSE(resp.cache_hit);
  ExpectMatchesPerRow(fx, q, resp);
}

/// A CountingPlanBuilder whose Build first waits, for at most 10 s, until
/// `arrived` reaches `clients`.
class GatedPlanBuilder : public CountingPlanBuilder {
 public:
  GatedPlanBuilder(const Planner& planner, std::atomic<size_t>& builds,
                   const std::atomic<size_t>& arrived, size_t clients)
      : CountingPlanBuilder(planner, builds),
        arrived_(arrived),
        clients_(clients) {}
  Plan Build(const Query& query) override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived_.load() < clients_ &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return CountingPlanBuilder::Build(query);
  }

 private:
  const std::atomic<size_t>& arrived_;
  const size_t clients_;
};

// The dist twin of ServeQueryServiceTest.ZeroCapacityPlansEveryRequest:
// capacity 0 is the plan-per-query baseline in both tiers, concurrent
// identical queries included. The first build waits until every client has
// entered Execute, so a tier that deduplicated them would build once.
TEST(DistCoordinatorTest, ZeroCapacityPlansEveryQuery) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(2);
  opts.plan_cache_capacity = 0;
  static constexpr size_t kClients = 4;
  std::atomic<size_t> builds{0};
  std::atomic<size_t> arrived{0};
  const Planner& planner = *fx.greedy;
  Coordinator coord(
      fx.data, fx.cm,
      [&planner, &builds, &arrived] {
        return std::make_unique<GatedPlanBuilder>(planner, builds, arrived,
                                                  kClients);
      },
      opts);

  const Query q = fx.MidQuery();
  std::atomic<size_t> planned{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      arrived.fetch_add(1);
      const Coordinator::Response resp = coord.Execute(q);
      EXPECT_TRUE(resp.ok());
      EXPECT_FALSE(resp.cache_hit);
      if (resp.planned) planned.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(builds.load(), kClients);
  EXPECT_EQ(planned.load(), kClients);
  EXPECT_EQ(coord.Report().planned, kClients);
  // No lookup at capacity 0 either.
  EXPECT_EQ(coord.cache().stats().misses, 0u);
}

// serve.cache.* counts the coordinator's plan cache, once per event. The
// shards' decode caches count only under dist.shard.*.
TEST(DistCoordinatorTest, ServeCacheCountersCountTheCoordinatorCacheOnly) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(4);
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();
  ASSERT_TRUE(coord.Execute(q).planned);  // every shard decodes and caches

  const obs::Counter& hits =
      obs::DefaultRegistry().GetCounter("serve.cache.hits");
  const obs::Counter& invalidations =
      obs::DefaultRegistry().GetCounter("serve.cache.invalidations");
  const uint64_t hits_before = hits.value();
  const uint64_t report_before = coord.Report().cache_hits;
  constexpr uint64_t kQueries = 10;
  for (uint64_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(coord.Execute(q).cache_hit);
  }
  EXPECT_EQ(coord.Report().cache_hits - report_before, kQueries);
  EXPECT_EQ(hits.value() - hits_before, kQueries);

  const uint64_t invalidations_before = invalidations.value();
  coord.InvalidateCache();
  EXPECT_EQ(invalidations.value() - invalidations_before, 1u);
}

TEST(DistCoordinatorTest, DeadShardDegradesOnlyItsPartition) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(4);
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();
  coord.Execute(q);  // warm the plan cache while everything is healthy

  const size_t victim = 2;
  coord.KillShard(victim);
  const Coordinator::Response resp = coord.Execute(q);

  // PR 3 contract: infrastructure failure degrades the answer, never the
  // request.
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.shards_total, 4u);
  EXPECT_EQ(resp.shards_ok, 3u);
  EXPECT_EQ(resp.shards_degraded, 1u);
  ASSERT_EQ(resp.shard_status.size(), 4u);
  EXPECT_EQ(resp.shard_status[victim].code(),
            StatusCode::kShardUnavailable);

  // The victim's rows — and only those — are Unknown; every defined verdict
  // agrees with ground truth.
  const std::vector<RowId>& dead_rows = coord.shard_rows(victim);
  EXPECT_EQ(resp.unknown_rows, dead_rows.size());
  EXPECT_TRUE(CountsMatchVerdicts(resp));
  std::vector<bool> is_dead_row(fx.data.num_rows(), false);
  for (RowId r : dead_rows) is_dead_row[r] = true;
  for (RowId r = 0; r < fx.data.num_rows(); ++r) {
    if (is_dead_row[r]) {
      EXPECT_EQ(resp.row_verdicts[r], Truth::kUnknown) << "row " << r;
    } else {
      ASSERT_NE(resp.row_verdicts[r], Truth::kUnknown) << "row " << r;
      EXPECT_EQ(resp.row_verdicts[r] == Truth::kTrue,
                q.Matches(fx.data.GetTuple(r)))
          << "row " << r;
    }
  }
}

TEST(DistCoordinatorTest, DeadShardIsSkippedThenRecoversThroughProbes) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(2);
  opts.health.dead_after = 2;
  opts.health.recover_after = 1;
  opts.health.probe_every = 4;
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();

  coord.KillShard(0);
  // Fail it into kDead.
  while (coord.shard_state(0) != ShardHealth::State::kDead) {
    const Coordinator::Response resp = coord.Execute(q);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(CountsMatchVerdicts(resp));
  }

  // Once dead, non-probe queries skip the shard without attempting it.
  bool saw_skip = false;
  for (uint64_t i = 0; i + 1 < opts.health.probe_every && !saw_skip; ++i) {
    const Coordinator::Response resp = coord.Execute(q);
    EXPECT_TRUE(CountsMatchVerdicts(resp));
    if (resp.shards_skipped == 1) {
      saw_skip = true;
      EXPECT_EQ(resp.shard_status[0].code(), StatusCode::kShardUnavailable);
      EXPECT_EQ(resp.unknown_rows, coord.shard_rows(0).size());
    }
  }
  EXPECT_TRUE(saw_skip);

  // Revive the process; a probe query lets health earn its way back, after
  // which answers are whole again.
  coord.ReviveShard(0);
  for (int i = 0; i < 3 * static_cast<int>(opts.health.probe_every); ++i) {
    if (coord.shard_state(0) == ShardHealth::State::kHealthy &&
        !coord.Execute(q).degraded()) {
      break;
    }
    const Coordinator::Response probed = coord.Execute(q);
    EXPECT_TRUE(CountsMatchVerdicts(probed));
  }
  EXPECT_EQ(coord.shard_state(0), ShardHealth::State::kHealthy);
  const Coordinator::Response whole = coord.Execute(q);
  EXPECT_FALSE(whole.degraded());
  EXPECT_EQ(whole.unknown_rows, 0u);
  EXPECT_TRUE(CountsMatchVerdicts(whole));
  EXPECT_GT(coord.Report().probes, 0u);
}

TEST(DistCoordinatorTest, StragglerTimesOutAndDegrades) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Range(2);
  // Generous margins: shard 0 must finish inside the deadline even on a
  // single-core runner under ASan/TSan, and shard 1's sleep must exceed the
  // deadline by a wide factor so only the straggler times out.
  opts.shard_deadline_seconds = 1.0;
  const Result<ShardFaultSpec> faults = ShardFaultSpec::Parse("delay@1=4000");
  ASSERT_TRUE(faults.ok());
  opts.shard_faults = faults.value();

  Coordinator::Response resp;
  std::vector<Truth> before;
  std::vector<RowId> straggler_rows;
  {
    Coordinator coord = fx.MakeCoordinator(opts);
    resp = coord.Execute(fx.MidQuery());
    before = resp.row_verdicts;  // shard 1 is still asleep
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp.degraded());
    EXPECT_EQ(resp.shard_status[1].code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(resp.unknown_rows, coord.shard_rows(1).size());
    EXPECT_TRUE(CountsMatchVerdicts(resp));
    // Shard 0 is unaffected by its sibling's sleep.
    EXPECT_TRUE(resp.shard_status[0].ok());

    const dist::DistReport report = coord.Report();
    EXPECT_GE(report.stragglers, 1u);
    EXPECT_GE(report.degraded_queries, 1u);
    EXPECT_GE(report.shards[1].timeouts, 1u);
    straggler_rows = coord.shard_rows(1);
  }
  // Destroying the coordinator drained shard 1's queue: the straggler woke
  // and wrote its verdicts into the query's shared buffer. The response
  // holds its own copy, so it must not have moved.
  EXPECT_EQ(resp.row_verdicts, before);
  for (RowId row : straggler_rows) {
    EXPECT_EQ(resp.row_verdicts[row], Truth::kUnknown) << "row " << row;
  }
  EXPECT_TRUE(CountsMatchVerdicts(resp));
}

/// A plan builder that takes `delay` before every build: a slow planner, as
/// an unoptimized build or a cold estimator makes one.
class SlowPlanBuilder : public serve::SharedPlannerBuilder {
 public:
  SlowPlanBuilder(const Planner& planner, std::chrono::milliseconds delay)
      : SharedPlannerBuilder(planner, /*fingerprint=*/21), delay_(delay) {}
  Plan Build(const Query& query) override {
    std::this_thread::sleep_for(delay_);
    return SharedPlannerBuilder::Build(query);
  }

 private:
  std::chrono::milliseconds delay_;
};

TEST(DistCoordinatorTest, SlowPlanBuildDoesNotSpendTheGatherDeadline) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Range(2);
  // The same margins as StragglerTimesOutAndDegrades: both shards finish
  // well inside 1 s of scatter even on a single-core runner under
  // ASan/TSan. Planning alone takes longer than the whole deadline, and
  // the gather clock must not have started yet.
  opts.shard_deadline_seconds = 1.0;
  const Planner& planner = *fx.greedy;
  Coordinator coord(
      fx.data, fx.cm,
      [&planner] {
        return std::make_unique<SlowPlanBuilder>(
            planner, std::chrono::milliseconds(1500));
      },
      opts);
  const Query q = fx.MidQuery();
  const Coordinator::Response resp = coord.Execute(q);
  EXPECT_TRUE(resp.planned);
  EXPECT_FALSE(resp.degraded());
  for (size_t i = 0; i < coord.num_shards(); ++i) {
    EXPECT_TRUE(resp.shard_status[i].ok())
        << "shard " << i << ": " << resp.shard_status[i].ToString();
  }
  EXPECT_EQ(resp.unknown_rows, 0u);
  ExpectMatchesPerRow(fx, q, resp);

  const dist::DistReport report = coord.Report();
  EXPECT_EQ(report.stragglers, 0u);
  EXPECT_EQ(report.degraded_queries, 0u);
  for (const auto& shard : report.shards) EXPECT_EQ(shard.timeouts, 0u);
}

TEST(DistCoordinatorTest, KillAfterScheduleFiresMidStream) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(2);
  const Result<ShardFaultSpec> faults = ShardFaultSpec::Parse("kill@1=2");
  ASSERT_TRUE(faults.ok());
  opts.shard_faults = faults.value();
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();

  // The shard serves its first two requests, then dies.
  for (int i = 0; i < 2; ++i) {
    const Coordinator::Response alive = coord.Execute(q);
    EXPECT_FALSE(alive.degraded());
    EXPECT_TRUE(CountsMatchVerdicts(alive));
  }
  const Coordinator::Response dead = coord.Execute(q);
  EXPECT_TRUE(dead.degraded());
  EXPECT_EQ(dead.shard_status[1].code(), StatusCode::kShardUnavailable);
  EXPECT_EQ(dead.unknown_rows, coord.shard_rows(1).size());
  EXPECT_TRUE(CountsMatchVerdicts(dead));
}

TEST(DistCoordinatorTest, RejectedReplyLeavesItsRowsUnknown) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(4);
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();

  // Shard 1 executes and writes its verdicts into the query's buffer, then
  // replies with bytes the decoder rejects: the coordinator must take its
  // rows back to Unknown.
  const size_t victim = 1;
  coord.CorruptNextShardReply(victim);
  const Coordinator::Response resp = coord.Execute(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.shards_ok, 3u);
  EXPECT_EQ(resp.shards_degraded, 1u);
  EXPECT_FALSE(resp.shard_status[victim].ok());
  const std::vector<RowId>& victim_rows = coord.shard_rows(victim);
  EXPECT_EQ(resp.unknown_rows, victim_rows.size());
  EXPECT_TRUE(CountsMatchVerdicts(resp));
  std::vector<bool> is_victim_row(fx.data.num_rows(), false);
  for (RowId r : victim_rows) is_victim_row[r] = true;
  for (RowId r = 0; r < fx.data.num_rows(); ++r) {
    if (is_victim_row[r]) {
      EXPECT_EQ(resp.row_verdicts[r], Truth::kUnknown) << "row " << r;
    } else {
      EXPECT_EQ(resp.row_verdicts[r] == Truth::kTrue,
                q.Matches(fx.data.GetTuple(r)))
          << "row " << r;
    }
  }

  // The hook corrupts one reply only.
  const Coordinator::Response next = coord.Execute(q);
  EXPECT_FALSE(next.degraded());
  ExpectMatchesPerRow(fx, q, next);
}

TEST(DistCoordinatorTest, RowLevelFaultsDegradeRowsNotShards) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(2);
  const Result<FaultSpec> faults = FaultSpec::Parse("transient@2=0.5");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  opts.acquisition_faults = faults.value();
  opts.row_policy = DegradationPolicy::UnknownVerdict();
  Coordinator coord = fx.MakeCoordinator(opts);

  // A query over the faulty attribute: some rows degrade to Unknown, but
  // the shards all answer and every defined verdict is correct.
  const Query q = Query::Conjunction({Predicate(2, 1, 3), Predicate(0, 1, 2)});
  const Coordinator::Response resp = coord.Execute(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.degraded());  // no shard-level degradation
  EXPECT_GT(resp.unknown_rows, 0u);
  EXPECT_LT(resp.unknown_rows, fx.data.num_rows());
  EXPECT_TRUE(CountsMatchVerdicts(resp));
  for (RowId r = 0; r < fx.data.num_rows(); ++r) {
    if (resp.row_verdicts[r] == Truth::kUnknown) continue;
    EXPECT_EQ(resp.row_verdicts[r] == Truth::kTrue,
              q.Matches(fx.data.GetTuple(r)))
        << "row " << r;
  }
}

TEST(DistCoordinatorTest, MergeEquivalenceUnderFaults) {
  // Faults are keyed by global row id, so every partitioning must return
  // the per-row scalar oracle's verdicts and totals: only the cross-shard
  // cost summation order may differ.
  DistFixture fx;
  const PartitionSpec specs[] = {
      PartitionSpec::Hash(1), PartitionSpec::Hash(4), PartitionSpec::Range(2),
      PartitionSpec::Range(4)};
  const char* profiles[] = {"transient=0.05", "transient@2=0.5", "stuck=0.3",
                            "spike=0.2,spike_mult=3"};
  const DegradationPolicy policies[] = {DegradationPolicy::UnknownVerdict(),
                                        DegradationPolicy::Retry(3, 1.5),
                                        DegradationPolicy::Abort()};
  Rng rng(4242);
  const Query queries[] = {
      fx.MidQuery(), testing_util::RandomConjunctiveQuery(fx.schema, rng)};
  size_t unknown_total = 0;
  for (const char* profile : profiles) {
    const Result<FaultSpec> faults = FaultSpec::Parse(profile);
    ASSERT_TRUE(faults.ok()) << faults.status().ToString();
    for (const DegradationPolicy& policy : policies) {
      // Per query: the per-row oracle, computed on the first partitioning's
      // plan (planning is deterministic, so every coordinator serves it).
      struct Oracle {
        std::vector<Truth> verdicts;
        ExecutionResult merged = MergeIdentity();
        size_t matches = 0;
        size_t unknown = 0;
      };
      std::vector<Oracle> oracles;
      for (const PartitionSpec& spec : specs) {
        Coordinator::Options opts;
        opts.partition = spec;
        opts.acquisition_faults = faults.value();
        opts.row_policy = policy;
        Coordinator coord = fx.MakeCoordinator(opts);
        for (size_t qi = 0; qi < std::size(queries); ++qi) {
          SCOPED_TRACE(std::string(profile) + " policy=" +
                       std::to_string(static_cast<int>(policy.mode)) +
                       " scheme=" + dist::PartitionSchemeName(spec.scheme) +
                       " shards=" + std::to_string(spec.num_shards) +
                       " query=" + std::to_string(qi));
          const Coordinator::Response resp = coord.Execute(queries[qi]);
          ASSERT_TRUE(resp.ok());
          ASSERT_FALSE(resp.degraded());
          ASSERT_EQ(resp.row_verdicts.size(), fx.data.num_rows());
          if (oracles.size() <= qi) {
            Oracle o;
            RowSource base(fx.data);
            const FaultInjector injector(faults.value());
            FaultyAcquisitionSource source(base, injector);
            for (RowId r = 0; r < fx.data.num_rows(); ++r) {
              base.SetRow(r);
              source.SetRow(r);
              const ExecutionResult row = ExecutePlan(
                  *resp.plan, fx.schema, fx.cm, source, nullptr, policy);
              o.verdicts.push_back(row.verdict3);
              o.matches += row.verdict3 == Truth::kTrue;
              o.unknown += row.verdict3 == Truth::kUnknown;
              o.merged = MergeExecutionResults(o.merged, row);
            }
            unknown_total += o.unknown;
            oracles.push_back(std::move(o));
          }
          const Oracle& want = oracles[qi];
          EXPECT_EQ(resp.row_verdicts, want.verdicts);
          EXPECT_EQ(resp.matches, want.matches);
          EXPECT_EQ(resp.unknown_rows, want.unknown);
          EXPECT_TRUE(CountsMatchVerdicts(resp));
          EXPECT_EQ(resp.merged.verdict3, want.merged.verdict3);
          EXPECT_EQ(resp.merged.acquisitions, want.merged.acquisitions);
          EXPECT_EQ(resp.merged.retries, want.merged.retries);
          EXPECT_EQ(resp.merged.failed.bits, want.merged.failed.bits);
          EXPECT_EQ(resp.merged.acquired.bits, want.merged.acquired.bits);
          EXPECT_EQ(resp.merged.aborted, want.merged.aborted);
          EXPECT_NEAR(resp.merged.cost, want.merged.cost,
                      1e-9 * (1.0 + std::abs(want.merged.cost)));
        }
      }
    }
  }
  EXPECT_GT(unknown_total, 0u);  // the profiles really degrade rows
}

// A dead shard's flight incident lands in its worker slot and carries the
// query's PlanKey, the one the coordinator's plan cache, every coordinator
// and shard span, and the merged calibration row carry too. The version (3)
// differs from the fingerprint (21), so a swapped pair fails.
TEST(DistCoordinatorTest, TracingCapturesShardIncidents) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(3);
  opts.enable_tracing = true;
  opts.enable_calibration = true;
  Coordinator coord = fx.MakeCoordinator(opts);
  for (int i = 0; i < 3; ++i) coord.InvalidateCache();
  const Query q = fx.MidQuery();
  const PlanKey want{QuerySignature(q), /*estimator_version=*/3,
                     /*planner_fingerprint=*/21};
  coord.Execute(q);

  const size_t victim = 1;
  coord.KillShard(victim);
  const Coordinator::Response resp = coord.Execute(q);
  EXPECT_TRUE(resp.degraded());

  const std::vector<obs::TraceRecorder::Incident> incidents =
      coord.trace_recorder().Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const obs::TraceRecorder::Incident& inc = incidents[0];
  EXPECT_EQ(inc.trace_id, resp.trace_id);
  // Worker slot i+1 carries shard i.
  EXPECT_EQ(inc.worker, victim + 1);
  EXPECT_EQ(inc.reason, "shard_unavailable");
  EXPECT_TRUE(inc.plan == want);
  for (const obs::SpanEvent& ev : inc.events) {
    EXPECT_TRUE(ev.plan == want) << ev.name;
  }

  EXPECT_EQ(coord.cache().Peek(want), resp.plan);
  const std::vector<obs::SpanEvent> events = coord.trace_recorder().Events();
  EXPECT_FALSE(events.empty());
  for (const obs::SpanEvent& ev : events) {
    EXPECT_TRUE(ev.plan == want) << ev.name;
  }
  const obs::CalibrationReport cal = coord.CalibrationSnapshot();
  ASSERT_EQ(cal.plans.size(), 1u);
  EXPECT_TRUE(cal.plans[0].key == want);
}

TEST(DistCoordinatorTest, CalibrationAggregatesAcrossShards) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(4);
  opts.enable_calibration = true;
  Coordinator coord = fx.MakeCoordinator(opts);
  const Query q = fx.MidQuery();
  for (int i = 0; i < 3; ++i) coord.Execute(q);

  const obs::CalibrationReport report = coord.CalibrationSnapshot();
  ASSERT_FALSE(report.plans.empty());
  // Each query executes the plan once per row; all shards feed one merged
  // profile, so executions cover the whole dataset each round.
  EXPECT_EQ(report.executions, 3u * fx.data.num_rows());
  EXPECT_GT(report.realized_cost, 0.0);
}

TEST(DistCoordinatorTest, ReportJsonIsWellFormedEnough) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Range(2);
  Coordinator coord = fx.MakeCoordinator(opts);
  coord.Execute(fx.MidQuery());

  const dist::DistReport report = coord.Report();
  EXPECT_EQ(report.queries, 1u);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.shards[0].rows + report.shards[1].rows,
            fx.data.num_rows());
  EXPECT_EQ(report.shards[0].state, ShardHealth::State::kHealthy);

  const std::string json = dist::DistReportToJson(report);
  EXPECT_NE(json.find("\"queries\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"state\""), std::string::npos);
  EXPECT_NE(json.find("healthy"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan target): concurrent clients, a fault injector thread
// flipping a shard, and report readers — defined verdicts must stay correct
// throughout.
// ---------------------------------------------------------------------------

TEST(DistCoordinatorConcurrencyTest, ConcurrentClientsWithShardFlapping) {
  DistFixture fx;
  Coordinator::Options opts;
  opts.partition = PartitionSpec::Hash(4);
  opts.health.dead_after = 2;
  opts.health.recover_after = 1;
  opts.health.probe_every = 8;
  Coordinator coord = fx.MakeCoordinator(opts);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 24;
  std::atomic<bool> stop{false};
  std::atomic<size_t> wrong{0};

  std::thread flapper([&] {
    size_t flips = 0;
    while (!stop.load(std::memory_order_acquire)) {
      coord.KillShard(3);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      coord.ReviveShard(3);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++flips;
    }
    (void)flips;
  });

  std::thread reporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const dist::DistReport report = coord.Report();
      (void)report.queries;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const Query q = testing_util::RandomConjunctiveQuery(fx.schema, rng);
        const Coordinator::Response resp = coord.Execute(q);
        if (!resp.ok() || !CountsMatchVerdicts(resp)) {
          wrong.fetch_add(1);
          continue;
        }
        for (RowId r = 0; r < fx.data.num_rows(); ++r) {
          if (resp.row_verdicts[r] == Truth::kUnknown) continue;
          if ((resp.row_verdicts[r] == Truth::kTrue) !=
              q.Matches(fx.data.GetTuple(r))) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  flapper.join();
  reporter.join();

  EXPECT_EQ(wrong.load(), 0u)
      << "a defined verdict disagreed with ground truth, or a count with "
         "the verdicts, under shard faults";
  EXPECT_EQ(coord.Report().queries,
            static_cast<uint64_t>(kClients) * kQueriesPerClient);
}

}  // namespace
}  // namespace caqp
