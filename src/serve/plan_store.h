// PlanStore: the one path from a query to a cached CompiledPlan, shared by
// QueryService (serve/query_service.h) and dist::Coordinator
// (dist/coordinator.h). Key() is the query's PlanKey (core/plan_key.h)
// under the current estimator version, Get() the one counted lookup in the
// sharded plan cache (plan_cache.h), BuildOnce() a single flight per key,
// and Invalidate() bumps the version and drops every entry. Capacity 0 is
// the plan-per-query baseline: no lookup, no cache and no single flight, so
// every BuildOnce builds.
//
// Single flight: of N concurrent misses on one key, one leader re-checks the
// cache uncounted (another leader may have finished while it queued) and
// otherwise builds, with no lock held; the N-1 followers block on its
// shared future, so a burst of identical cold queries costs one plan. A
// leader never waits on queued work (thread_pool.h), so the wait chain is
// always follower -> leader -> done. The store counts serve.cache.* and
// serve.single_flight.* and records the plan.wait_leader and
// plan.build_leader spans.

#ifndef CAQP_SERVE_PLAN_STORE_H_
#define CAQP_SERVE_PLAN_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/plan_key.h"
#include "core/query.h"
#include "opt/cost_model.h"
#include "opt/planner.h"
#include "opt/uncertainty.h"
#include "plan/compiled_plan.h"
#include "serve/plan_cache.h"

namespace caqp {
namespace serve {

/// Per-worker planning bundle. QueryService calls Build from exactly one
/// thread at a time per instance, so implementations may hold state that is
/// not safe to share (every caqp::prob estimator is, so they need not).
class PlanBuilder {
 public:
  virtual ~PlanBuilder() = default;
  virtual Plan Build(const Query& query) = 0;
  /// Cheap plan used when the service cannot wait for Build (a follower
  /// timed out on the single-flight leader, see Options::
  /// planner_timeout_seconds). Implementations should return something
  /// orders of magnitude cheaper to construct than Build — e.g. a
  /// sequential plan from GreedySeqSolver — at the price of a worse
  /// expected acquisition cost. Must still be a correct plan for `query`.
  /// Defaults to Build, which makes the timeout a no-op.
  virtual Plan BuildFallback(const Query& query) { return Build(query); }
  /// Stable fingerprint of the planner kind + options + training-data
  /// identity. Part of the cache key, so two services (or one service after
  /// a config change) never alias each other's plans. All bundles from one
  /// factory must agree on this value.
  virtual uint64_t ConfigFingerprint() const = 0;
  /// The estimator whose beliefs Build's plans encode, used (only when
  /// Options::enable_calibration) to stamp predicted side tables on freshly
  /// compiled plans. Called from the same worker thread as Build, so
  /// non-shareable estimators are fine. nullptr skips prediction stamping;
  /// observed counters are still collected.
  virtual CondProbEstimator* CalibrationEstimator() { return nullptr; }
  /// The uncertainty box Build's plans hedge against, when this builder
  /// plans robustly (e.g. wraps an opt::RegretPlanner following a
  /// SharedUncertaintyBox). Fill `*out` and return true to have
  /// CompileForServe stamp the box and its interval cost evaluation
  /// (ExpectedPlanCostBounds) onto the plan's estimates, so calibration
  /// scores the robust plan against the range it promised. Default: point
  /// planning, nothing stamped.
  virtual bool PlanningBox(opt::UncertaintyBox* out) {
    (void)out;
    return false;
  }
};

using PlanBuilderFactory = std::function<std::unique_ptr<PlanBuilder>()>;

/// Compiles a plan `builder` just built, for serving. With
/// `stamp_estimates` (calibration on) and a builder that exposes an
/// estimator, also stamps the predicted side tables (plan/plan_estimates.h),
/// plus the builder's uncertainty box and its interval cost when it plans
/// robustly. Call on the thread that ran Build.
/// Every plan QueryService and dist::Coordinator serve goes through here,
/// so every executed plan carries the same metadata.
std::shared_ptr<const CompiledPlan> CompileForServe(
    PlanBuilder& builder, const Plan& plan,
    const AcquisitionCostModel& cost_model, bool stamp_estimates);

/// Bundle over a shared const Planner (requires a thread-safe estimator —
/// see opt/planner.h). The planner must outlive the service.
class SharedPlannerBuilder : public PlanBuilder {
 public:
  SharedPlannerBuilder(const Planner& planner, uint64_t fingerprint)
      : planner_(planner), fingerprint_(fingerprint) {}
  Plan Build(const Query& query) override { return planner_.BuildPlan(query); }
  uint64_t ConfigFingerprint() const override { return fingerprint_; }
  CondProbEstimator* CalibrationEstimator() override {
    return planner_.estimator();
  }

 private:
  const Planner& planner_;
  uint64_t fingerprint_;
};

class PlanStore {
 public:
  using BuildFn = std::function<std::shared_ptr<const CompiledPlan>()>;

  struct Built {
    std::shared_ptr<const CompiledPlan> plan;  ///< nullptr iff timed_out
    bool planned = false;    ///< this caller ran `build`
    bool timed_out = false;  ///< a follower that stopped waiting
  };

  /// `fingerprint` is the planner-config component of every key.
  PlanStore(size_t capacity, uint64_t fingerprint);

  PlanKey Key(const Query& query) const;

  /// The cached plan, refreshing its LRU position, or nullptr. Counts one
  /// hit or miss (at capacity 0, neither).
  std::shared_ptr<const CompiledPlan> Get(const PlanKey& key);

  /// The plan build() returns, built once per key at a time: followers get
  /// the leader's plan, or, when `follower_wait_seconds` is positive, give
  /// up after that long so the caller can degrade; the leader still
  /// finishes and caches its plan. `build` must not return nullptr or
  /// re-enter BuildOnce for the same key.
  Built BuildOnce(const PlanKey& key, const BuildFn& build,
                  double follower_wait_seconds = 0.0);

  /// Bumps the version of future keys, then drops every cached plan. A
  /// build racing the bump may still insert a plan under the old version;
  /// it is unreachable and ages out of the LRU.
  void Invalidate();

  uint64_t version() const { return version_.load(std::memory_order_relaxed); }
  const ShardedPlanCache& cache() const { return cache_; }
  size_t InFlight() const;  ///< keys being built (for tests)

 private:
  struct Flight {
    std::promise<std::shared_ptr<const CompiledPlan>> promise;
    std::shared_future<std::shared_ptr<const CompiledPlan>> future =
        promise.get_future().share();
  };

  const bool caching_;
  const uint64_t fingerprint_;
  ShardedPlanCache cache_;
  std::atomic<uint64_t> version_{0};
  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<Flight>, PlanKeyHash>
      flights_;  // guarded by mu_
};

}  // namespace serve
}  // namespace caqp

#endif  // CAQP_SERVE_PLAN_STORE_H_
