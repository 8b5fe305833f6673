#include "prob/histogram.h"

#include <algorithm>
#include <cmath>

namespace caqp {

double Histogram::RangeCount(const ValueRange& r) const {
  CAQP_DCHECK(r.hi < counts_.size());
  double sum = 0.0;
  for (uint32_t v = r.lo; v <= r.hi; ++v) sum += counts_[v];
  return sum;
}

double Histogram::Probability(const ValueRange& r) const {
  return total_ > 0 ? RangeCount(r) / total_ : 0.0;
}

double Histogram::Mean() const {
  if (total_ <= 0) return 0.0;
  double m = 0.0;
  for (size_t v = 0; v < counts_.size(); ++v) m += v * counts_[v];
  return m / total_;
}

double Histogram::StdDev() const {
  if (total_ <= 0) return 0.0;
  const double mean = Mean();
  double ss = 0.0;
  for (size_t v = 0; v < counts_.size(); ++v) {
    const double d = static_cast<double>(v) - mean;
    ss += d * d * counts_[v];
  }
  return std::sqrt(ss / total_);
}

void MaskDistribution::Aggregate() {
  const auto not_ascending = [](const auto& a, const auto& b) {
    return a.first >= b.first;
  };
  if (std::adjacent_find(entries_.begin(), entries_.end(), not_ascending) ==
      entries_.end()) {
    return;  // strictly ascending: already aggregated
  }
  // Equal masks keep their insertion order, so each sum adds its weights in
  // the order they were added.
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  size_t out = 0;
  for (size_t i = 0; i < entries_.size();) {
    const uint64_t mask = entries_[i].first;
    double sum = 0.0;
    for (; i < entries_.size() && entries_[i].first == mask; ++i) {
      sum += entries_[i].second;
    }
    entries_[out++] = {mask, sum};
  }
  entries_.resize(out);
}

double MaskDistribution::MassAllTrue(uint64_t subset) const {
  double sum = 0.0;
  for (const auto& [mask, w] : entries_) {
    if ((mask & subset) == subset) sum += w;
  }
  return sum;
}

MaskDistribution MaskDistribution::ConditionTrue(int bit) const {
  MaskDistribution out;
  const uint64_t b = uint64_t{1} << bit;
  for (const auto& [mask, w] : entries_) {
    if (mask & b) out.Add(mask, w);
  }
  out.Aggregate();
  return out;
}

}  // namespace caqp
