#include "obs/registry.h"

#include <algorithm>

#include "common/check.h"

namespace caqp {
namespace obs {

namespace {
template <typename Entry>
const Entry* FindByName(const std::vector<Entry>& sorted,
                        std::string_view name) {
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), name,
      [](const Entry& e, std::string_view n) { return e.name < n; });
  return it != sorted.end() && it->name == name ? &*it : nullptr;
}

void Fold(RegistrySnapshot::CounterValue& into,
          const RegistrySnapshot::CounterValue& from) {
  into.value += from.value;
}
void Fold(RegistrySnapshot::GaugeValue& into,
          const RegistrySnapshot::GaugeValue& from) {
  into.value = std::max(into.value, from.value);
}
void Fold(RegistrySnapshot::HistogramValue& into,
          const RegistrySnapshot::HistogramValue& from) {
  into.hist.Merge(from.hist);
}

/// Merges two name-sorted vectors into `*dst`, folding each run of equal
/// names into its first entry.
template <typename Entry>
void MergeSorted(std::vector<Entry>* dst, const std::vector<Entry>& src) {
  std::vector<Entry> out;
  out.reserve(dst->size() + src.size());
  auto a = dst->cbegin();
  auto b = src.cbegin();
  while (a != dst->cend() || b != src.cend()) {
    const bool take_dst =
        b == src.cend() || (a != dst->cend() && a->name <= b->name);
    const Entry& next = take_dst ? *a++ : *b++;
    if (!out.empty() && out.back().name == next.name) {
      Fold(out.back(), next);
    } else {
      out.push_back(next);
    }
  }
  *dst = std::move(out);
}
}  // namespace

void RegistrySnapshot::MergeFrom(const RegistrySnapshot& other) {
  MergeSorted(&counters, other.counters);
  MergeSorted(&gauges, other.gauges);
  MergeSorted(&histograms, other.histograms);
}

uint64_t RegistrySnapshot::CounterByName(std::string_view name) const {
  const CounterValue* c = FindByName(counters, name);
  return c != nullptr ? c->value : 0;
}

HistogramSnapshot RegistrySnapshot::HistogramByName(
    std::string_view name) const {
  const HistogramValue* h = FindByName(histograms, name);
  return h != nullptr ? h->hist : HistogramSnapshot{};
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CAQP_DCHECK(gauges_.find(name) == gauges_.end());
  CAQP_DCHECK(histograms_.find(name) == histograms_.end());
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CAQP_DCHECK(counters_.find(name) == counters_.end());
  CAQP_DCHECK(histograms_.find(name) == histograms_.end());
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CAQP_DCHECK(counters_.find(name) == counters_.end());
  CAQP_DCHECK(gauges_.find(name) == gauges_.end());
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->Snapshot()});
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry& DefaultRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

}  // namespace obs
}  // namespace caqp
