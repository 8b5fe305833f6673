// Sharded LRU cache of compiled plans, keyed on
// (query signature, estimator version, planner-config fingerprint).
//
// Key semantics:
//  * query signature — QuerySignature(query) (core/query_signature.h):
//    canonicalized, so predicate/conjunct order never causes a miss.
//  * estimator version — a counter the owning QueryService bumps whenever
//    the statistics a planner would train on change (estimator refresh,
//    adaptive replanner adoption). Bumping orphans every cached plan without
//    touching the cache: old-version keys are simply never asked for again
//    and age out of the LRU. InvalidateAll() additionally drops them eagerly.
//  * planner fingerprint — PlanBuilder::ConfigFingerprint(): planner kind +
//    options + training-data identity, so services with different planner
//    configs never alias plans.
//
// Values are shared_ptr<const CompiledPlan>: a hit hands out a reference to the
// immutable compiled plan, never a deep copy, and eviction cannot free a
// plan still executing on another thread.
//
// Concurrency: the key space is split across `shards` independently locked
// LRU maps by the high bits of the key hash; LRU order is per-shard. Hit /
// miss / insert / eviction / invalidation counts feed both the local Stats
// snapshot and the caqp::obs registry ("serve.cache.*").

#ifndef CAQP_SERVE_PLAN_CACHE_H_
#define CAQP_SERVE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"
#include "plan/compiled_plan.h"

namespace caqp {
namespace serve {

struct PlanCacheKey {
  uint64_t query_sig = 0;
  uint64_t estimator_version = 0;
  uint64_t planner_fingerprint = 0;

  bool operator==(const PlanCacheKey&) const = default;
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& k) const {
    size_t h = HashCombine(k.query_sig, k.estimator_version);
    return HashCombine(h, k.planner_fingerprint);
  }
};

class ShardedPlanCache {
 public:
  struct Options {
    /// Total entries across shards. 0 disables the cache entirely (every
    /// Get misses, Put is a no-op) — the plan-per-query baseline.
    size_t capacity = 1024;
    size_t shards = 8;
  };

  /// Point-in-time counter snapshot (monotonic over the cache lifetime).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;  ///< entries dropped by InvalidateAll
  };

  explicit ShardedPlanCache(Options options);

  /// Returns the cached plan and refreshes its LRU position, or nullptr.
  /// Counts one hit or one miss.
  std::shared_ptr<const CompiledPlan> Get(const PlanCacheKey& key);

  /// Get without counting it or touching LRU order: for a caller that has
  /// already counted its lookup and only re-checks before planning.
  std::shared_ptr<const CompiledPlan> Peek(const PlanCacheKey& key) const;

  /// Inserts (or replaces) the plan for `key`, evicting the shard's
  /// least-recently-used entries if over budget.
  void Put(const PlanCacheKey& key, std::shared_ptr<const CompiledPlan> plan);

  /// Eagerly drops every entry (estimator refresh). Version-bumped keys
  /// would age out anyway; this frees their memory immediately.
  void InvalidateAll();

  /// Current entry count across shards (racy-by-design snapshot).
  size_t size() const;

  Stats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<PlanCacheKey, std::shared_ptr<const CompiledPlan>>> lru;
    std::unordered_map<PlanCacheKey,
                       std::list<std::pair<PlanCacheKey,
                                           std::shared_ptr<const CompiledPlan>>>::
                           iterator,
                       PlanCacheKeyHash>
        index;
  };

  Shard& ShardFor(const PlanCacheKey& key) const;

  Options options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace serve
}  // namespace caqp

#endif  // CAQP_SERVE_PLAN_CACHE_H_
