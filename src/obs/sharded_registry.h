// ShardedRegistry — per-worker metric shards with snapshot-time aggregation.
//
// The process-global DefaultRegistry() is fine for cold paths, but on the
// serving hot path every worker bumping the same Counter atomics turns one
// cache line into a coherence hot spot. A ShardedRegistry gives each worker
// its own MetricsRegistry shard: hot-path writers resolve their metric refs
// once per worker (QueryService prefetches them into a per-worker struct)
// and thereafter touch only worker-local cache lines. Snapshot() merges the
// shards into one RegistrySnapshot.
//
// Merge semantics are RegistrySnapshot::MergeFrom's (documented because
// they are visible in exports):
//  * counters — summed.
//  * gauges   — max across shards (gauges record high-water marks on the
//               serve path; a sum of last-written values is meaningless).
//  * histograms — bucket-wise merge; quantiles over the merged snapshot are
//               exact up to bucket resolution, identical to a single
//               histogram fed every sample. Histograms are the only
//               distribution metric, so every distribution merges exactly.

#ifndef CAQP_OBS_SHARDED_REGISTRY_H_
#define CAQP_OBS_SHARDED_REGISTRY_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace caqp {
namespace obs {

class ShardedRegistry {
 public:
  explicit ShardedRegistry(size_t num_shards);

  ShardedRegistry(const ShardedRegistry&) = delete;
  ShardedRegistry& operator=(const ShardedRegistry&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// The shard owned by `worker` (modulo the shard count). References
  /// obtained from it stay valid for the registry's lifetime.
  MetricsRegistry& shard(size_t worker) {
    return *shards_[worker % shards_.size()];
  }
  const MetricsRegistry& shard(size_t worker) const {
    return *shards_[worker % shards_.size()];
  }

  /// Merged view of every shard, per the semantics in the header comment.
  RegistrySnapshot Snapshot() const;

  void ResetAll();

 private:
  std::vector<std::unique_ptr<MetricsRegistry>> shards_;
};

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_SHARDED_REGISTRY_H_
