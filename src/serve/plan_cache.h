// Sharded LRU cache of compiled plans, keyed on PlanKey (core/plan_key.h):
// query signature, estimator version, planner fingerprint. Bumping the
// estimator version orphans every cached plan without touching the cache:
// old-version keys are simply never asked for again and age out of the LRU.
// InvalidateAll() additionally drops them eagerly.
//
// Values are shared_ptr<const CompiledPlan>: a hit hands out a reference to the
// immutable compiled plan, never a deep copy, and eviction cannot free a
// plan still executing on another thread.
//
// Concurrency: the key space is split across `shards` independently locked
// LRU maps by the high bits of the key hash; LRU order is per-shard. Hit /
// miss / insert / eviction / invalidation counts feed the local Stats
// snapshot only; a serving tier's PlanStore (plan_store.h) reports its own
// cache's events as "serve.cache.*".

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

#include "core/plan_key.h"
#include "plan/compiled_plan.h"

namespace caqp {
namespace serve {

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
  std::shared_ptr<const CompiledPlan> Get(const PlanKey& key);

  /// Get without counting it or touching LRU order: for a caller that has
  /// already counted its lookup and only re-checks before planning.
  std::shared_ptr<const CompiledPlan> Peek(const PlanKey& key) const;

  /// What one Put did.
  struct PutResult {
    bool inserted = false;  ///< false when it replaced the key's entry
    size_t evicted = 0;     ///< least-recently-used entries it dropped
  };

  /// Inserts (or replaces) the plan for `key`, evicting the shard's
  /// least-recently-used entries if over budget.
  PutResult Put(const PlanKey& key, std::shared_ptr<const CompiledPlan> plan);

  /// Eagerly drops every entry (estimator refresh) and returns how many.
  /// Version-bumped keys would age out anyway; this frees their memory
  /// immediately.
  size_t InvalidateAll();

  /// Current entry count across shards (racy-by-design snapshot).
  size_t size() const;

  Stats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<PlanKey, std::shared_ptr<const CompiledPlan>>> lru;
    std::unordered_map<PlanKey,
                       std::list<std::pair<PlanKey,
                                           std::shared_ptr<const CompiledPlan>>>::
                           iterator,
                       PlanKeyHash>
        index;
  };

  Shard& ShardFor(const PlanKey& key) const;

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
