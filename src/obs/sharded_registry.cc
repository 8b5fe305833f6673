#include "obs/sharded_registry.h"

#include <algorithm>
#include <map>

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
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  for (const auto& shard : shards_) {
    const RegistrySnapshot snap = shard->Snapshot();
    for (const auto& c : snap.counters) counters[c.name] += c.value;
    for (const auto& g : snap.gauges) {
      auto [it, inserted] = gauges.emplace(g.name, g.value);
      if (!inserted) it->second = std::max(it->second, g.value);
    }
    for (const auto& h : snap.histograms) histograms[h.name].Merge(h.hist);
  }

  RegistrySnapshot out;
  out.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) out.counters.push_back({name, value});
  out.gauges.reserve(gauges.size());
  for (const auto& [name, value] : gauges) out.gauges.push_back({name, value});
  out.histograms.reserve(histograms.size());
  for (const auto& [name, hist] : histograms) {
    out.histograms.push_back({name, hist});
  }
  return out;
}

void ShardedRegistry::ResetAll() {
  for (const auto& shard : shards_) shard->ResetAll();
}

}  // namespace obs
}  // namespace caqp
