#include "serve/plan_cache.h"

#include "common/check.h"

namespace caqp {
namespace serve {

ShardedPlanCache::ShardedPlanCache(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Ceiling split so the total budget is never silently under capacity.
  per_shard_capacity_ =
      (options_.capacity + options_.shards - 1) / options_.shards;
}

ShardedPlanCache::Shard& ShardedPlanCache::ShardFor(
    const PlanKey& key) const {
  // The low bits of the key hash pick the map bucket inside a shard; run a
  // full splitmix64 finalizer before picking the shard so the two choices
  // stay independent even for near-sequential signatures.
  const uint64_t x = Mix64(PlanKeyHash{}(key) + kGoldenGamma);
  return *shards_[x % shards_.size()];
}

std::shared_ptr<const CompiledPlan> ShardedPlanCache::Get(const PlanKey& key) {
  if (options_.capacity == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

std::shared_ptr<const CompiledPlan> ShardedPlanCache::Peek(
    const PlanKey& key) const {
  if (options_.capacity == 0) return nullptr;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  return it == shard.index.end() ? nullptr : it->second->second;
}

ShardedPlanCache::PutResult ShardedPlanCache::Put(
    const PlanKey& key, std::shared_ptr<const CompiledPlan> plan) {
  CAQP_CHECK(plan != nullptr);
  PutResult result;
  if (options_.capacity == 0) return result;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Last write wins and refreshes recency.
    it->second->second = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return result;
  }
  shard.lru.emplace_front(key, std::move(plan));
  shard.index.emplace(key, shard.lru.begin());
  inserts_.fetch_add(1, std::memory_order_relaxed);
  result.inserted = true;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    ++result.evicted;
  }
  return result;
}

size_t ShardedPlanCache::InvalidateAll() {
  size_t dropped = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    dropped += shard->lru.size();
    shard->index.clear();
    shard->lru.clear();
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

size_t ShardedPlanCache::size() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

ShardedPlanCache::Stats ShardedPlanCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace serve
}  // namespace caqp
