#include "obs/sharded_registry.h"

namespace caqp {
namespace obs {

ShardedRegistry::ShardedRegistry(size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<MetricsRegistry>());
  }
}

RegistrySnapshot ShardedRegistry::Snapshot() const {
  RegistrySnapshot out;
  for (const auto& shard : shards_) out.MergeFrom(shard->Snapshot());
  return out;
}

void ShardedRegistry::ResetAll() {
  for (const auto& shard : shards_) shard->ResetAll();
}

}  // namespace obs
}  // namespace caqp
