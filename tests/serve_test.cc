// caqp::serve tests: query canonicalization/signatures, the sharded LRU plan
// cache, the PlanStore's single-flight planning, the worker pool, and the
// QueryService end to end — including the concurrency stress tests that
// scripts/check.sh runs under ThreadSanitizer (every suite here is named
// Serve* so the TSan build can select them with ctest -R '^Serve').

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/query_signature.h"
#include "obs/registry.h"
#include "opt/adaptive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "prob/chow_liu.h"
#include "prob/dataset_estimator.h"
#include "serve/plan_cache.h"
#include "serve/plan_store.h"
#include "serve/query_service.h"
#include "serve/thread_pool.h"
#include "test_util.h"

namespace caqp {
namespace {

using serve::PlanStore;
using serve::QueryService;
using serve::ServeReport;
using serve::ShardedPlanCache;
using serve::ThreadPool;

// ---------------------------------------------------------------------------
// Canonicalization and signatures
// ---------------------------------------------------------------------------

TEST(ServeSignatureTest, PredicateOrderDoesNotMatter) {
  const Query a = Query::Conjunction(
      {Predicate(0, 1, 2), Predicate(1, 0, 3), Predicate(2, 1, 1)});
  const Query b = Query::Conjunction(
      {Predicate(2, 1, 1), Predicate(0, 1, 2), Predicate(1, 0, 3)});
  EXPECT_FALSE(a == b);  // structural equality is order-sensitive
  EXPECT_EQ(QuerySignature(a), QuerySignature(b));
  EXPECT_TRUE(EquivalentQueries(a, b));
  EXPECT_TRUE(CanonicalizeQuery(a) == CanonicalizeQuery(b));
}

TEST(ServeSignatureTest, ConjunctOrderDoesNotMatter) {
  const Query a = Query::Disjunction(
      {{Predicate(0, 0, 1)}, {Predicate(1, 2, 3), Predicate(2, 0, 0)}});
  const Query b = Query::Disjunction(
      {{Predicate(2, 0, 0), Predicate(1, 2, 3)}, {Predicate(0, 0, 1)}});
  EXPECT_EQ(QuerySignature(a), QuerySignature(b));
  EXPECT_TRUE(EquivalentQueries(a, b));
}

TEST(ServeSignatureTest, DuplicatePredicatesCollapse) {
  // AND and OR are idempotent; exact duplicates must not change the key.
  const Query a = Query::Conjunction({Predicate(0, 1, 2), Predicate(0, 1, 2),
                                      Predicate(1, 0, 0)});
  const Query b = Query::Conjunction({Predicate(1, 0, 0), Predicate(0, 1, 2)});
  EXPECT_EQ(QuerySignature(a), QuerySignature(b));

  const Query c = Query::Disjunction({{Predicate(0, 1, 2)},
                                      {Predicate(0, 1, 2)},
                                      {Predicate(1, 0, 0)}});
  const Query d =
      Query::Disjunction({{Predicate(1, 0, 0)}, {Predicate(0, 1, 2)}});
  EXPECT_EQ(QuerySignature(c), QuerySignature(d));
}

TEST(ServeSignatureTest, NegationIsPartOfTheKey) {
  const Query plain = Query::Conjunction({Predicate(0, 1, 2)});
  const Query negated =
      Query::Conjunction({Predicate(0, 1, 2, /*negated=*/true)});
  EXPECT_NE(QuerySignature(plain), QuerySignature(negated));
  EXPECT_FALSE(EquivalentQueries(plain, negated));
}

TEST(ServeSignatureTest, BoundsArePartOfTheKey) {
  const Query a = Query::Conjunction({Predicate(0, 1, 2)});
  const Query b = Query::Conjunction({Predicate(0, 1, 3)});
  const Query c = Query::Conjunction({Predicate(0, 0, 2)});
  EXPECT_NE(QuerySignature(a), QuerySignature(b));
  EXPECT_NE(QuerySignature(a), QuerySignature(c));
}

TEST(ServeSignatureTest, DuplicateAttributesWithDistinctRangesPreserved) {
  // Query::ValidFor rejects two predicates on one attribute; canonicalization
  // must not silently merge them and mask the invalid input.
  const Query q =
      Query::Conjunction({Predicate(0, 0, 1), Predicate(0, 2, 3)});
  EXPECT_EQ(CanonicalizeQuery(q).TotalPredicates(), 2u);
}

TEST(ServeSignatureTest, CanonicalizeIsIdempotent) {
  const Query q = Query::Disjunction(
      {{Predicate(3, 1, 4, true), Predicate(0, 0, 2)},
       {Predicate(2, 2, 2)},
       {Predicate(3, 1, 4, true), Predicate(0, 0, 2)}});
  const Query once = CanonicalizeQuery(q);
  const Query twice = CanonicalizeQuery(once);
  EXPECT_TRUE(once == twice);
  EXPECT_EQ(QuerySignature(q), QuerySignature(once));
}

// ---------------------------------------------------------------------------
// Sharded plan cache
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledPlan> LeafPlan(bool verdict) {
  return std::make_shared<const CompiledPlan>(
      CompiledPlan::Compile(*PlanNode::Verdict(verdict)));
}

TEST(ServePlanCacheTest, HitAndMiss) {
  ShardedPlanCache cache({/*capacity=*/8, /*shards=*/2});
  const PlanKey key{1, 0, 0};
  EXPECT_EQ(cache.Get(key), nullptr);
  auto plan = LeafPlan(true);
  cache.Put(key, plan);
  EXPECT_EQ(cache.Get(key), plan);
  EXPECT_EQ(cache.Get(PlanKey{1, 1, 0}), nullptr);  // version differs
  EXPECT_EQ(cache.Get(PlanKey{1, 0, 1}), nullptr);  // config differs
  const ShardedPlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(ServePlanCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is global and deterministic.
  ShardedPlanCache cache({/*capacity=*/2, /*shards=*/1});
  cache.Put({1, 0, 0}, LeafPlan(true));
  cache.Put({2, 0, 0}, LeafPlan(true));
  EXPECT_NE(cache.Get({1, 0, 0}), nullptr);  // 1 is now most recent
  cache.Put({3, 0, 0}, LeafPlan(true));      // evicts 2
  EXPECT_EQ(cache.Get({2, 0, 0}), nullptr);
  EXPECT_NE(cache.Get({1, 0, 0}), nullptr);
  EXPECT_NE(cache.Get({3, 0, 0}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServePlanCacheTest, ZeroCapacityDisablesCaching) {
  ShardedPlanCache cache({/*capacity=*/0, /*shards=*/4});
  cache.Put({1, 0, 0}, LeafPlan(true));
  EXPECT_EQ(cache.Get({1, 0, 0}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST(ServePlanCacheTest, PutReplacesExistingEntry) {
  ShardedPlanCache cache({8, 2});
  cache.Put({1, 0, 0}, LeafPlan(true));
  auto replacement = LeafPlan(false);
  cache.Put({1, 0, 0}, replacement);
  EXPECT_EQ(cache.Get({1, 0, 0}), replacement);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServePlanCacheTest, InvalidateAllDropsEverything) {
  // Capacity well above the entry count so shard skew cannot evict before
  // the invalidation we are testing.
  ShardedPlanCache cache({64, 4});
  for (uint64_t i = 0; i < 10; ++i) cache.Put({i, 0, 0}, LeafPlan(true));
  EXPECT_EQ(cache.size(), 10u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(cache.Get({i, 0, 0}), nullptr);
}

TEST(ServePlanCacheTest, HoldsEntryAliveAcrossEviction) {
  ShardedPlanCache cache({1, 1});
  auto plan = cache.Get({1, 0, 0});
  cache.Put({1, 0, 0}, LeafPlan(true));
  plan = cache.Get({1, 0, 0});
  cache.Put({2, 0, 0}, LeafPlan(false));  // evicts key 1
  ASSERT_NE(plan, nullptr);               // still safe to use
  EXPECT_TRUE(plan->root().verdict());
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

TEST(ServeThreadPoolTest, RunsEveryTaskWithValidWorkerId) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<size_t> ran{0};
  std::atomic<bool> bad_id{false};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&](size_t worker_id) {
      if (worker_id >= 3) bad_id = true;
      ran.fetch_add(1);
    });
  }
  // The destructor drains the queue before joining.
  {
    ThreadPool drained(2);
    for (int i = 0; i < 50; ++i) {
      drained.Submit([&](size_t) { ran.fetch_add(1); });
    }
  }
  while (ran.load() < 150) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 150u);
  EXPECT_FALSE(bad_id.load());
}

// Idle spin (ThreadPool's second argument). The budgets below are far longer
// than any wait in the tests, so a worker that finished its task is still
// spinning when the next Submit or the destructor arrives.
constexpr std::chrono::seconds kLongSpin{30};

TEST(ServeThreadPoolTest, IdleSpinRunsEveryTaskWithValidWorkerId) {
  std::atomic<size_t> ran{0};
  std::atomic<bool> bad_id{false};
  {
    ThreadPool pool(3, std::chrono::microseconds(200));
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&](size_t worker_id) {
        if (worker_id >= 3) bad_id = true;
        ran.fetch_add(1);
      });
      // Gaps longer than the spin, so some tasks find a parked worker.
      if (i % 16 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
  }
  EXPECT_EQ(ran.load(), 200u);
  EXPECT_FALSE(bad_id.load());
}

TEST(ServeThreadPoolTest, TaskSubmittedDuringIdleSpinRuns) {
  ThreadPool pool(1, kLongSpin);
  for (int i = 0; i < 3; ++i) {
    // Each task after the first arrives while the worker spins on the empty
    // queue it left; it must run long before the spin budget runs out.
    std::promise<void> done;
    std::future<void> fut = done.get_future();
    pool.Submit([&done](size_t) { done.set_value(); });
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "task " << i;
  }
}

TEST(ServeThreadPoolTest, DestructionDuringIdleSpinDrainsAndJoins) {
  std::atomic<size_t> ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    ThreadPool pool(2, kLongSpin);
    std::promise<void> first;
    std::future<void> fut = first.get_future();
    pool.Submit([&](size_t) {
      ran.fetch_add(1);
      first.set_value();
    });
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    // Both workers are idle and spinning now; queue more work and destroy.
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&](size_t) { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 51u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kLongSpin / 3)
      << "the destructor waited out the spin budget";
}

// ---------------------------------------------------------------------------
// Single-flight (PlanStore::BuildOnce)
// ---------------------------------------------------------------------------

TEST(ServeSingleFlightTest, ConcurrentSameKeyBuildsOnce) {
  PlanStore store(/*capacity=*/8, /*fingerprint=*/0);
  const PlanKey key{42, 0, 0};
  std::atomic<int> builds{0};
  std::atomic<int> leaders{0};
  constexpr int kThreads = 8;

  // Gate the build on all threads having arrived, so every thread is inside
  // BuildOnce() while the leader is still building.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> arrived{0};

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CompiledPlan>> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      PlanStore::Built r = store.BuildOnce(key, [&] {
        open.wait();
        builds.fetch_add(1);
        return LeafPlan(true);
      });
      leaders.fetch_add(r.planned);
      results[i] = r.plan;
    });
  }
  while (arrived.load() < kThreads) std::this_thread::yield();
  // Give followers a moment to reach the future wait, then open the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.set_value();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(leaders.load(), 1);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(results[i], results[0]);
  EXPECT_EQ(store.InFlight(), 0u);
}

TEST(ServeSingleFlightTest, DistinctKeysBuildIndependently) {
  PlanStore store(/*capacity=*/8, /*fingerprint=*/0);
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  for (uint64_t k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      store.BuildOnce(PlanKey{k, 0, 0}, [&] {
        builds.fetch_add(1);
        return LeafPlan(true);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 4);
}

// ---------------------------------------------------------------------------
// QueryService end to end
// ---------------------------------------------------------------------------

/// Counts builds across all bundles so tests can assert how often the
/// service actually planned.
class CountingBuilder : public serve::PlanBuilder {
 public:
  CountingBuilder(CondProbEstimator& estimator,
                  const AcquisitionCostModel& cm, const SplitPointSet& splits,
                  const SequentialSolver& solver, std::atomic<size_t>& builds)
      : builds_(builds) {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &solver;
    opts.max_splits = 3;
    planner_ = std::make_unique<GreedyPlanner>(estimator, cm, opts);
  }
  Plan Build(const Query& query) override {
    builds_.fetch_add(1);
    return planner_->BuildPlan(query);
  }
  uint64_t ConfigFingerprint() const override { return 7; }

 private:
  std::atomic<size_t>& builds_;
  std::unique_ptr<GreedyPlanner> planner_;
};

struct ServiceFixture {
  Schema schema = testing_util::SmallSchema();
  Dataset data = testing_util::CorrelatedDataset(schema, 4000, 11);
  PerAttributeCostModel cm{schema};
  SplitPointSet splits = SplitPointSet::AllPoints(schema);
  GreedySeqSolver solver;
  // ChowLiu is immutable after construction, so one instance may back every
  // worker's bundle (see prob/estimator.h).
  ChowLiuEstimator estimator{data};
  std::atomic<size_t> builds{0};

  QueryService MakeService(size_t workers = 4, size_t capacity = 64) {
    QueryService::Options opts;
    opts.num_workers = workers;
    opts.cache_capacity = capacity;
    return QueryService(
        schema, cm,
        [this] {
          return std::make_unique<CountingBuilder>(estimator, cm, splits,
                                                   solver, builds);
        },
        opts);
  }

  Query MidQuery() const {
    return Query::Conjunction(
        {Predicate(2, 1, 3), Predicate(3, 2, 4), Predicate(0, 1, 2)});
  }
};

TEST(ServeQueryServiceTest, VerdictsMatchDirectEvaluation) {
  ServiceFixture fx;
  QueryService service = fx.MakeService();
  const Query q = fx.MidQuery();
  for (RowId r = 0; r < 200; ++r) {
    const Tuple t = fx.data.GetTuple(r);
    const QueryService::Response resp = service.SubmitAndWait(q, t);
    EXPECT_EQ(resp.exec.verdict, q.Matches(t)) << "row " << r;
    EXPECT_NE(resp.plan, nullptr);
  }
  EXPECT_EQ(fx.builds.load(), 1u);  // one build, 199 cache hits
}

TEST(ServeQueryServiceTest, ShuffledPredicatesHitTheSameEntry) {
  ServiceFixture fx;
  QueryService service = fx.MakeService();
  const Tuple t = fx.data.GetTuple(0);
  const QueryService::Response first = service.SubmitAndWait(
      Query::Conjunction({Predicate(0, 1, 2), Predicate(3, 2, 4)}), t);
  const QueryService::Response second = service.SubmitAndWait(
      Query::Conjunction({Predicate(3, 2, 4), Predicate(0, 1, 2)}), t);
  EXPECT_EQ(first.query_sig, second.query_sig);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.plan, first.plan);
  EXPECT_EQ(fx.builds.load(), 1u);
}

TEST(ServeQueryServiceTest, CachedRequestPathClonesNoPlanNodes) {
  ServiceFixture fx;
  QueryService service = fx.MakeService();
  const Query q = fx.MidQuery();
  // Warm the cache: the single-flight leader plans once and compiles the
  // tree into the shared CompiledPlan at insert time.
  service.SubmitAndWait(q, fx.data.GetTuple(0));

  // Every subsequent request runs the flat IR straight out of the cache:
  // zero PlanNode clones (and zero tree copies of any kind) on the hot path.
  const uint64_t clones_before =
      obs::DefaultRegistry().GetCounter("plan.node_clones").value();
  for (RowId r = 1; r < 100; ++r) {
    const QueryService::Response resp =
        service.SubmitAndWait(q, fx.data.GetTuple(r));
    ASSERT_TRUE(resp.cache_hit);
  }
  const uint64_t clones_after =
      obs::DefaultRegistry().GetCounter("plan.node_clones").value();
  EXPECT_EQ(clones_after - clones_before, 0u);
  EXPECT_EQ(fx.builds.load(), 1u);
}

TEST(ServeQueryServiceTest, ZeroCapacityPlansEveryRequest) {
  ServiceFixture fx;
  QueryService service = fx.MakeService(/*workers=*/2, /*capacity=*/0);
  const Query q = fx.MidQuery();
  for (RowId r = 0; r < 5; ++r) {
    const QueryService::Response resp =
        service.SubmitAndWait(q, fx.data.GetTuple(r));
    EXPECT_TRUE(resp.planned);
    EXPECT_FALSE(resp.cache_hit);
  }
  EXPECT_EQ(fx.builds.load(), 5u);
}

TEST(ServeQueryServiceTest, InvalidateCacheBumpsVersionAndReplans) {
  ServiceFixture fx;
  QueryService service = fx.MakeService();
  const Query q = fx.MidQuery();
  const Tuple t = fx.data.GetTuple(0);
  const QueryService::Response before = service.SubmitAndWait(q, t);
  EXPECT_EQ(before.estimator_version, 0u);
  service.InvalidateCache();
  EXPECT_EQ(service.estimator_version(), 1u);
  EXPECT_EQ(service.cache().size(), 0u);
  const QueryService::Response after = service.SubmitAndWait(q, t);
  EXPECT_EQ(after.estimator_version, 1u);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(after.planned);
  EXPECT_EQ(fx.builds.load(), 2u);
}

TEST(ServeQueryServiceTest, ReportCoversEveryRequest) {
  ServiceFixture fx;
  QueryService service = fx.MakeService();
  const Query q = fx.MidQuery();
  for (RowId r = 0; r < 32; ++r) {
    service.SubmitAndWait(q, fx.data.GetTuple(r));
  }
  const ServeReport report = service.Report();
  EXPECT_EQ(report.requests, 32u);
  EXPECT_EQ(report.ok, 32u);
  EXPECT_EQ(report.latency.count, 32u);
  EXPECT_GT(report.latency.mean(), 0.0);
  EXPECT_LE(report.latency.p50(), report.latency.p99());
  EXPECT_LE(report.latency.p99(), report.latency.max);
  // 1 leader planned, the rest were cache hits.
  EXPECT_EQ(report.planned, 1u);
  EXPECT_EQ(report.cache_hits, 31u);
  EXPECT_EQ(report.deadline_exceeded, 0u);
  EXPECT_EQ(report.shed, 0u);
  // The hits were answered on this thread, in the submitter slot after the
  // workers.
  ASSERT_EQ(report.workers.size(), service.num_workers() + 1);
  EXPECT_EQ(report.workers.back().worker, service.num_workers());
  EXPECT_EQ(report.workers.back().requests, 31u);
  EXPECT_EQ(report.workers.back().cache_hits, 31u);
  EXPECT_EQ(report.workers.back().latency.count, 31u);
}

TEST(ServeQueryServiceTest, CalibrationCountsEveryHit) {
  ServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 2;
  opts.enable_calibration = true;
  QueryService service(
      fx.schema, fx.cm,
      [&fx] {
        return std::make_unique<CountingBuilder>(fx.estimator, fx.cm,
                                                 fx.splits, fx.solver,
                                                 fx.builds);
      },
      opts);
  const Query q = fx.MidQuery();
  size_t hits = 0;
  for (RowId r = 0; r < 40; ++r) {
    hits += service.SubmitAndWait(q, fx.data.GetTuple(r)).cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, 39u);
  const obs::CalibrationReport report = service.CalibrationSnapshot();
  // One plan row (one key) holding all 40 executions, the 39 calling-thread
  // hits included.
  ASSERT_EQ(report.plans.size(), 1u);
  EXPECT_EQ(report.plans[0].executions, 40u);
  EXPECT_EQ(report.executions, 40u);
}

TEST(ServeQueryServiceTest, AdaptiveAdoptionInvalidatesTheCache) {
  // Reuse the adaptive test's drifting stream: when AdaptivePlanner adopts a
  // replacement plan, the hook must orphan every cached plan in the service.
  Schema schema;
  schema.AddAttribute("cheap", 2, 1.0);
  schema.AddAttribute("expA", 2, 50.0);
  schema.AddAttribute("expB", 2, 50.0);
  PerAttributeCostModel cm(schema);
  SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  const Query query =
      Query::Conjunction({Predicate(1, 1, 1), Predicate(2, 1, 1)});

  Dataset warm = testing_util::CorrelatedDataset(schema, 1000, 5);
  ChowLiuEstimator estimator(warm);
  GreedySeqSolver greedyseq;
  std::atomic<size_t> builds{0};
  QueryService service(
      schema, cm,
      [&] {
        return std::make_unique<CountingBuilder>(estimator, cm, splits,
                                                 greedyseq, builds);
      },
      QueryService::Options{});

  AdaptivePlanner::Options aopts;
  aopts.window_size = 600;
  aopts.replan_interval = 200;
  aopts.improvement_threshold = 0.02;
  aopts.split_points = &splits;
  aopts.seq_solver = &optseq;
  aopts.max_splits = 4;
  aopts.on_plan_adopted = [&service] { service.InvalidateCache(); };
  AdaptivePlanner adaptive(schema, query, cm, aopts);

  // Populate the cache, then drive the stream until a replan is adopted.
  service.SubmitAndWait(query, warm.GetTuple(0));
  EXPECT_EQ(service.cache().size(), 1u);

  Rng rng(77);
  size_t fed = 0;
  // Regime 0 then flipped regime 1 — drawn from adaptive_test's generator.
  auto draw = [&](int regime) {
    const bool c = rng.Bernoulli(0.5);
    const bool a = rng.Bernoulli((regime == 0) == c ? 0.9 : 0.1);
    const bool b = rng.Bernoulli((regime == 0) == c ? 0.1 : 0.9);
    return Tuple{static_cast<Value>(c), static_cast<Value>(a),
                 static_cast<Value>(b)};
  };
  for (; fed < 1000 && adaptive.stats().replans_adopted == 0; ++fed) {
    adaptive.Observe(draw(0));
  }
  for (; fed < 5000 && adaptive.stats().replans_adopted == 0; ++fed) {
    adaptive.Observe(draw(1));
  }
  ASSERT_GT(adaptive.stats().replans_adopted, 0u)
      << "stream never drifted enough to adopt a replan";
  EXPECT_GT(service.estimator_version(), 0u);
  EXPECT_EQ(service.cache().size(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan targets)
// ---------------------------------------------------------------------------

TEST(ServeStressTest, ConcurrentMixedWorkload) {
  // Many clients, a small cache (constant churn), repeated invalidations —
  // every cross-thread interaction in the subsystem exercised at once.
  ServiceFixture fx;
  QueryService service = fx.MakeService(/*workers=*/4, /*capacity=*/4);

  std::vector<Query> workload;
  for (Value lo = 0; lo < 3; ++lo) {
    workload.push_back(Query::Conjunction(
        {Predicate(2, lo, 3), Predicate(3, lo, 4), Predicate(0, 1, 2)}));
    workload.push_back(
        Query::Conjunction({Predicate(3, lo, 4, /*negated=*/true),
                            Predicate(1, lo, static_cast<Value>(lo + 2))}));
  }

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 60;
  std::atomic<size_t> errors{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (size_t r = 0; r < kPerClient; ++r) {
        const Query& q = workload[static_cast<size_t>(
            rng.UniformInt(0, workload.size() - 1))];
        const Tuple t = fx.data.GetTuple(static_cast<RowId>(
            rng.UniformInt(0, fx.data.num_rows() - 1)));
        const QueryService::Response resp = service.SubmitAndWait(q, t);
        if (resp.exec.verdict != q.Matches(t)) errors.fetch_add(1);
        if (resp.plan == nullptr) errors.fetch_add(1);
        if (r % 16 == 0 && c == 0) service.InvalidateCache();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(service.Report().latency.count, kClients * kPerClient);
  const ShardedPlanCache::Stats cs = service.cache().stats();
  EXPECT_EQ(cs.hits + cs.misses, kClients * kPerClient);
}

TEST(ServeStressTest, SharedConstPlannerConcurrentBuilds) {
  // The satellite thread-safety contract (opt/planner.h): one const Planner
  // over a thread-safe estimator may run BuildPlan from many threads. Drive
  // it through SharedPlannerBuilder with caching disabled so every request
  // plans concurrently.
  ServiceFixture fx;
  GreedyPlanner::Options opts;
  opts.split_points = &fx.splits;
  opts.seq_solver = &fx.solver;
  opts.max_splits = 3;
  const GreedyPlanner shared_planner(fx.estimator, fx.cm, opts);

  QueryService::Options sopts;
  sopts.num_workers = 4;
  sopts.cache_capacity = 0;
  QueryService service(
      fx.schema, fx.cm,
      [&] {
        return std::make_unique<serve::SharedPlannerBuilder>(shared_planner,
                                                             /*fingerprint=*/1);
      },
      sopts);

  std::vector<std::future<QueryService::Response>> futures;
  for (RowId r = 0; r < 64; ++r) {
    // Vary the query so concurrent builds traverse different subproblems.
    const Value lo = static_cast<Value>(r % 3);
    futures.push_back(service.Submit(
        Query::Conjunction({Predicate(2, lo, 3), Predicate(3, lo, 4)}),
        fx.data.GetTuple(r)));
  }
  for (auto& f : futures) {
    const QueryService::Response resp = f.get();
    EXPECT_TRUE(resp.planned);
    EXPECT_NE(resp.plan, nullptr);
  }
}

TEST(ServeStressTest, SingleFlightUnderContention) {
  // A hot key rotated every round: leaders and followers interleave with
  // erase/reinsert of flights, and with evictions from a cache too small
  // to hold every round's plan.
  PlanStore store(/*capacity=*/8, /*fingerprint=*/0);
  std::atomic<size_t> builds{0};
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 50;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (uint64_t round = 0; round < kRounds; ++round) {
        PlanStore::Built r = store.BuildOnce(PlanKey{round, 0, 0}, [&] {
          builds.fetch_add(1);
          std::this_thread::yield();
          return LeafPlan(true);
        });
        ASSERT_NE(r.plan, nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // At least one build per round; at most one per (round, thread) — the
  // interesting assertion is that every caller got a plan with no race,
  // which TSan checks for us.
  EXPECT_GE(builds.load(), kRounds);
  EXPECT_LE(builds.load(), kRounds * kThreads);
  EXPECT_EQ(store.InFlight(), 0u);
}

// ---------------------------------------------------------------------------
// Robustness: deadlines, load shedding, planner-timeout fallback
// ---------------------------------------------------------------------------

/// Builder whose Build sleeps (a stand-in for an expensive planner) while
/// BuildFallback returns a cheap-but-correct generic plan immediately.
class SlowBuilder : public serve::PlanBuilder {
 public:
  SlowBuilder(double build_sleep_seconds, std::atomic<size_t>& builds,
              std::atomic<size_t>& fallbacks)
      : sleep_(build_sleep_seconds), builds_(builds), fallbacks_(fallbacks) {}

  Plan Build(const Query& query) override {
    builds_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_));
    return GenericPlanFor(query);
  }
  Plan BuildFallback(const Query& query) override {
    fallbacks_.fetch_add(1);
    return GenericPlanFor(query);
  }
  uint64_t ConfigFingerprint() const override { return 99; }

 private:
  static Plan GenericPlanFor(const Query& query) {
    return Plan(PlanNode::Generic(query, query.ReferencedAttributes()));
  }

  double sleep_;
  std::atomic<size_t>& builds_;
  std::atomic<size_t>& fallbacks_;
};

struct SlowServiceFixture {
  Schema schema = testing_util::SmallSchema();
  PerAttributeCostModel cm{schema};
  std::atomic<size_t> builds{0};
  std::atomic<size_t> fallbacks{0};

  QueryService MakeService(QueryService::Options opts,
                           double build_sleep_seconds) {
    return QueryService(
        schema, cm,
        [this, build_sleep_seconds] {
          return std::make_unique<SlowBuilder>(build_sleep_seconds, builds,
                                               fallbacks);
        },
        opts);
  }
};

TEST(ServeRobustnessTest, DeadlinePassedBeforePickupIsRejected) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 1;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.3);
  const Tuple t = {1, 1, 1, 1};

  // Occupy the single worker with a slow uncached plan...
  std::future<QueryService::Response> blocker =
      svc.Submit(Query::Conjunction({Predicate(0, 1, 2)}), t);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // ...so this request's 20ms deadline expires while it sits in the queue.
  QueryService::Response late = svc.SubmitAndWait(
      Query::Conjunction({Predicate(1, 1, 2)}), t, /*deadline_seconds=*/0.02);
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.plan, nullptr);

  const QueryService::Response first = blocker.get();
  EXPECT_TRUE(first.ok());
  EXPECT_TRUE(first.exec.verdict);
}

TEST(ServeRobustnessTest, CacheHitDoesNotWaitForBusyWorkers) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 1;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.3);
  const Tuple t = {1, 1, 1, 1};
  const Query cached = Query::Conjunction({Predicate(0, 1, 2)});
  ASSERT_TRUE(svc.SubmitAndWait(cached, t).planned);

  // Hold the only worker with a 0.3 s build...
  std::future<QueryService::Response> blocker =
      svc.Submit(Query::Conjunction({Predicate(1, 1, 2)}), t);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...while the cached query answers without it.
  const auto t0 = std::chrono::steady_clock::now();
  const QueryService::Response hit = svc.SubmitAndWait(cached, t);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.exec.verdict);
  EXPECT_LT(waited, 0.05);
  EXPECT_LE(hit.latency_seconds, waited);
  EXPECT_TRUE(blocker.get().planned);
  EXPECT_EQ(fx.builds.load(), 2u);
}

TEST(ServeRobustnessTest, QueuedMissReusesPlanFinishedWhileQueued) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 1;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.1);
  const Tuple t = {1, 1, 1, 1};
  const Query q = Query::Conjunction({Predicate(2, 1, 2)});
  // Both miss in Submit; the second reaches the worker only after the
  // first's build has finished and left single-flight.
  std::future<QueryService::Response> first = svc.Submit(q, t);
  std::future<QueryService::Response> second = svc.Submit(q, t);
  EXPECT_TRUE(first.get().planned);
  const QueryService::Response r = second.get();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.cache_hit);
  EXPECT_FALSE(r.planned);
  EXPECT_EQ(fx.builds.load(), 1u);
  const ShardedPlanCache::Stats cs = svc.cache().stats();
  EXPECT_EQ(cs.hits + cs.misses, 2u);
}

TEST(ServeRobustnessTest, LoadSheddingAnswersUnavailableImmediately) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 1;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.15);
  const Tuple t = {1, 1, 1, 1};

  std::vector<std::future<QueryService::Response>> futures;
  for (int i = 0; i < 6; ++i) {
    // Distinct attrs => distinct cache keys => every request must plan.
    futures.push_back(
        svc.Submit(Query::Conjunction({Predicate(i % 4, 1, 2)}), t));
  }
  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const QueryService::Response r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kUnavailable);
      EXPECT_EQ(r.plan, nullptr);
      ++shed;
    }
  }
  EXPECT_GE(ok, 1u);   // the admitted request(s) complete normally
  EXPECT_GE(shed, 1u); // the burst exceeded the queue depth
}

TEST(ServeRobustnessTest, PlannerTimeoutFollowerServesFallback) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 2;
  opts.planner_timeout_seconds = 0.02;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.4);
  const Query q = Query::Conjunction({Predicate(0, 1, 2)});
  const Tuple t = {1, 0, 0, 0};

  std::future<QueryService::Response> a = svc.Submit(q, t);
  std::future<QueryService::Response> b = svc.Submit(q, t);
  const QueryService::Response ra = a.get();
  const QueryService::Response rb = b.get();

  // Both answered, both correct, despite the leader planning for 400ms.
  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rb.ok());
  EXPECT_TRUE(ra.exec.verdict);
  EXPECT_TRUE(rb.exec.verdict);
  // Exactly one leader planned; the other either degraded to the fallback
  // (timed out on the leader) or, if scheduling delayed it past the
  // leader's finish, hit the cache.
  EXPECT_EQ(static_cast<int>(ra.planned) + static_cast<int>(rb.planned), 1);
  const QueryService::Response& follower = ra.planned ? rb : ra;
  EXPECT_TRUE(follower.fallback || follower.cache_hit);
  if (follower.fallback) {
    EXPECT_GE(fx.fallbacks.load(), 1u);
  }

  // The fallback is never cached: the next request gets the leader's plan.
  const QueryService::Response after = svc.SubmitAndWait(q, t);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(fx.builds.load(), 1u);
}

// ---------------------------------------------------------------------------
// Observability v2: request spans, flight recorder, ServeReport
// ---------------------------------------------------------------------------

TEST(ServeObsTest, TracingRecordsNestedRequestSpans) {
  ServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 2;
  opts.cache_capacity = 64;
  opts.enable_tracing = true;
  QueryService service(
      fx.schema, fx.cm,
      [&fx] {
        return std::make_unique<CountingBuilder>(fx.estimator, fx.cm,
                                                 fx.splits, fx.solver,
                                                 fx.builds);
      },
      opts);
  const Query q = fx.MidQuery();
  std::vector<std::pair<uint64_t, bool>> trace_ids;  // (trace id, cache hit)
  for (RowId r = 0; r < 3; ++r) {
    const QueryService::Response resp =
        service.SubmitAndWait(q, fx.data.GetTuple(r));
    ASSERT_TRUE(resp.ok());
    EXPECT_NE(resp.trace_id, 0u);
    trace_ids.emplace_back(resp.trace_id, resp.cache_hit);
  }
  ASSERT_FALSE(trace_ids[0].second);
  ASSERT_TRUE(trace_ids[1].second);

  const std::vector<obs::SpanEvent> events = service.trace_recorder().Events();
  for (const auto& [trace_id, hit] : trace_ids) {
    // Each request yields a root "request" span with plan and exec children
    // nested inside it, plus a queue child when a worker answered it (a
    // cache hit is answered on the calling thread and never queues) — the
    // queueing -> planning -> execution story of one request,
    // reconstructable from parent ids alone.
    const obs::SpanEvent* request = nullptr;
    for (const obs::SpanEvent& ev : events) {
      if (ev.trace_id == trace_id && std::string_view(ev.name) == "request") {
        ASSERT_EQ(request, nullptr) << "duplicate root span";
        request = &ev;
      }
    }
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->parent_id, 0u);

    bool saw_queue = false, saw_plan = false, saw_exec = false;
    for (const obs::SpanEvent& ev : events) {
      if (ev.trace_id != trace_id || &ev == request) continue;
      // Children start within the root and end no later than it.
      EXPECT_GE(ev.start_ns, request->start_ns);
      EXPECT_LE(ev.start_ns + ev.dur_ns, request->start_ns + request->dur_ns);
      EXPECT_EQ(ev.worker, request->worker);
      const std::string_view name(ev.name);
      if (name == "queue") {
        saw_queue = true;
        EXPECT_EQ(ev.parent_id, request->span_id);
      } else if (name == "plan") {
        saw_plan = true;
        EXPECT_EQ(ev.parent_id, request->span_id);
      } else if (name == "exec") {
        saw_exec = true;
        EXPECT_EQ(ev.parent_id, request->span_id);
      }
    }
    EXPECT_EQ(saw_queue, !hit);
    EXPECT_TRUE(saw_plan);
    EXPECT_TRUE(saw_exec);
  }

  // The single planning leader additionally recorded the planner span chain.
  size_t build_leader_spans = 0, planner_spans = 0;
  for (const obs::SpanEvent& ev : events) {
    if (std::string_view(ev.name) == "plan.build_leader") ++build_leader_spans;
    if (std::string_view(ev.name) == "planner.build") ++planner_spans;
  }
  EXPECT_EQ(build_leader_spans, 1u);
  EXPECT_EQ(planner_spans, 1u);
  EXPECT_EQ(service.trace_recorder().incident_count(), 0u);
}

TEST(ServeObsTest, CacheHitSpansJoinUnderTheirRequestRoot) {
  ServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 2;
  opts.enable_tracing = true;
  QueryService service(
      fx.schema, fx.cm,
      [&fx] {
        return std::make_unique<CountingBuilder>(fx.estimator, fx.cm,
                                                 fx.splits, fx.solver,
                                                 fx.builds);
      },
      opts);
  const Query q = fx.MidQuery();
  service.SubmitAndWait(q, fx.data.GetTuple(0));
  std::vector<uint64_t> hit_ids;
  for (RowId r = 1; r < 6; ++r) {
    const QueryService::Response resp =
        service.SubmitAndWait(q, fx.data.GetTuple(r));
    ASSERT_TRUE(resp.cache_hit);
    hit_ids.push_back(resp.trace_id);
  }
  const std::vector<obs::SpanEvent> events =
      service.trace_recorder().Events();
  for (const uint64_t trace_id : hit_ids) {
    std::vector<obs::SpanEvent> spans;
    ASSERT_TRUE(
        testing_util::TraceIsOneTree(events, trace_id, "request", &spans));
    EXPECT_GE(spans.size(), 3u);  // request, plan, exec
    for (const obs::SpanEvent& ev : spans) {
      // Recorded in the submitter slot, carrying the plan's cache key.
      EXPECT_EQ(ev.worker, service.num_workers());
      EXPECT_EQ(ev.plan.query_sig, QuerySignature(q));
      EXPECT_NE(std::string_view(ev.name), "queue");
    }
  }
}

// One traced, calibrated query carries one PlanKey into the plan cache,
// every span event, a flight incident and its calibration row. The version
// (3) differs from the fingerprint (7), so a swapped pair fails.
TEST(ServeObsTest, OneKeyInCacheSpansIncidentAndCalibration) {
  ServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 2;
  opts.cache_capacity = 64;
  opts.enable_tracing = true;
  opts.enable_calibration = true;
  QueryService service(
      fx.schema, fx.cm,
      [&fx] {
        return std::make_unique<CountingBuilder>(fx.estimator, fx.cm,
                                                 fx.splits, fx.solver,
                                                 fx.builds);
      },
      opts);
  for (int i = 0; i < 3; ++i) service.InvalidateCache();
  const Query q = fx.MidQuery();
  const PlanKey want{QuerySignature(q), /*estimator_version=*/3,
                     /*planner_fingerprint=*/7};

  // A miss whose deadline passes before a worker picks it up dumps a
  // flight incident; the same query then plans, executes and hits.
  const QueryService::Response late =
      service.SubmitAndWait(q, fx.data.GetTuple(0), /*deadline=*/1e-9);
  ASSERT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  const QueryService::Response miss =
      service.SubmitAndWait(q, fx.data.GetTuple(1));
  ASSERT_TRUE(miss.planned);
  ASSERT_TRUE(service.SubmitAndWait(q, fx.data.GetTuple(2)).cache_hit);

  EXPECT_EQ(service.cache().Peek(want), miss.plan);
  const std::vector<obs::SpanEvent> events = service.trace_recorder().Events();
  // request + queue (late miss); request, queue, plan, plan.build_leader,
  // planner.build, exec (planned miss); request, plan, exec (hit).
  EXPECT_GE(events.size(), 11u);
  for (const obs::SpanEvent& ev : events) {
    EXPECT_TRUE(ev.plan == want) << ev.name;
  }
  const std::vector<obs::TraceRecorder::Incident> incidents =
      service.trace_recorder().Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trace_id, late.trace_id);
  EXPECT_TRUE(incidents[0].plan == want);
  EXPECT_FALSE(incidents[0].events.empty());
  for (const obs::SpanEvent& ev : incidents[0].events) {
    EXPECT_TRUE(ev.plan == want) << ev.name;
  }
  const obs::CalibrationReport cal = service.CalibrationSnapshot();
  ASSERT_EQ(cal.plans.size(), 1u);
  EXPECT_TRUE(cal.plans[0].key == want);
  EXPECT_EQ(cal.plans[0].executions, 2u);
}

TEST(ServeObsTest, TracingOffRecordsNothing) {
  ServiceFixture fx;
  QueryService service = fx.MakeService();  // enable_tracing defaults off
  service.SubmitAndWait(fx.MidQuery(), fx.data.GetTuple(0));
  EXPECT_TRUE(service.trace_recorder().Events().empty());
  EXPECT_EQ(service.trace_recorder().incident_count(), 0u);
}

TEST(ServeObsTest, DeadlineExceededDumpsFlightRecorder) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.enable_tracing = true;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.3);
  const Tuple t = {1, 1, 1, 1};

  std::future<QueryService::Response> blocker =
      svc.Submit(Query::Conjunction({Predicate(0, 1, 2)}), t);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  QueryService::Response late = svc.SubmitAndWait(
      Query::Conjunction({Predicate(1, 1, 2)}), t, /*deadline_seconds=*/0.02);
  blocker.get();
  ASSERT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);

  EXPECT_GE(svc.Report().deadline_exceeded, 1u);
  const std::vector<obs::TraceRecorder::Incident> incidents =
      svc.trace_recorder().Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trace_id, late.trace_id);
  EXPECT_EQ(incidents[0].reason, "deadline_exceeded");
  // The ring was dumped after the request span closed, so the degraded
  // request's own spans are part of its postmortem.
  bool has_own_root = false;
  for (const obs::SpanEvent& ev : incidents[0].events) {
    if (ev.trace_id == late.trace_id &&
        std::string_view(ev.name) == "request") {
      has_own_root = true;
    }
  }
  EXPECT_TRUE(has_own_root);
}

TEST(ServeObsTest, LoadShedRecordsIncident) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 1;
  opts.enable_tracing = true;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.15);
  const Tuple t = {1, 1, 1, 1};

  std::vector<std::future<QueryService::Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        svc.Submit(Query::Conjunction({Predicate(i % 4, 1, 2)}), t));
  }
  std::vector<uint64_t> shed_ids;
  for (auto& f : futures) {
    const QueryService::Response r = f.get();
    if (!r.ok()) shed_ids.push_back(r.trace_id);
  }
  ASSERT_GE(shed_ids.size(), 1u);
  EXPECT_EQ(svc.Report().shed, shed_ids.size());

  const std::vector<obs::TraceRecorder::Incident> incidents =
      svc.trace_recorder().Incidents();
  for (const uint64_t id : shed_ids) {
    bool found = false;
    for (const auto& incident : incidents) {
      if (incident.trace_id == id && incident.reason == "load_shed") {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no load_shed incident for trace " << id;
  }
}

TEST(ServeObsTest, PlannerTimeoutFallbackDumpsFlightRecorder) {
  SlowServiceFixture fx;
  QueryService::Options opts;
  opts.num_workers = 2;
  opts.planner_timeout_seconds = 0.02;
  opts.enable_tracing = true;
  QueryService svc = fx.MakeService(opts, /*build_sleep_seconds=*/0.4);
  const Query q = Query::Conjunction({Predicate(0, 1, 2)});
  const Tuple t = {1, 0, 0, 0};

  std::future<QueryService::Response> a = svc.Submit(q, t);
  std::future<QueryService::Response> b = svc.Submit(q, t);
  const QueryService::Response ra = a.get();
  const QueryService::Response rb = b.get();
  const QueryService::Response& follower = ra.planned ? rb : ra;
  if (!follower.fallback) {
    GTEST_SKIP() << "scheduling let the follower hit the cache";
  }
  EXPECT_EQ(svc.Report().fallbacks, 1u);
  const std::vector<obs::TraceRecorder::Incident> incidents =
      svc.trace_recorder().Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trace_id, follower.trace_id);
  EXPECT_EQ(incidents[0].reason, "planner_timeout_fallback");
  EXPECT_FALSE(incidents[0].events.empty());
}

}  // namespace
}  // namespace caqp
