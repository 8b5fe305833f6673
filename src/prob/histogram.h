// One-dimensional value histograms and predicate-mask joint distributions:
// the two statistics every planner consumes (paper Section 5).

#ifndef CAQP_PROB_HISTOGRAM_H_
#define CAQP_PROB_HISTOGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"

namespace caqp {

/// Weighted counts over one attribute's domain [0, K).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(uint32_t domain) : counts_(domain, 0.0) {}

  void Add(Value v, double w = 1.0) {
    CAQP_DCHECK(v < counts_.size());
    counts_[v] += w;
    total_ += w;
  }

  uint32_t domain() const { return static_cast<uint32_t>(counts_.size()); }
  double total() const { return total_; }
  double Count(Value v) const {
    CAQP_DCHECK(v < counts_.size());
    return counts_[v];
  }

  /// Total weight in the inclusive range [r.lo, r.hi].
  double RangeCount(const ValueRange& r) const;

  /// P(X in r) under the histogram; 0 if the histogram is empty.
  double Probability(const ValueRange& r) const;

  /// P(X == v); 0 if empty.
  double ValueProbability(Value v) const {
    return total_ > 0 ? Count(v) / total_ : 0.0;
  }

  /// Empirical mean of the value index (used by workload generators to pick
  /// predicate widths in units of standard deviations, Section 6.1).
  double Mean() const;
  /// Empirical standard deviation of the value index.
  double StdDev() const;

 private:
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Joint distribution over the truth values of a small predicate set,
/// aggregated as (bitmask, weight) pairs: bit j of the mask is predicate j's
/// truth. This is the "normalized joint histogram over the rediscretized
/// attributes X'_1..X'_m" of Section 5.2, stored sparsely (the number of
/// distinct masks is bounded by the number of tuples, not 2^m).
class MaskDistribution {
 public:
  MaskDistribution() = default;

  void Add(uint64_t mask, double w) {
    entries_.emplace_back(mask, w);
    total_ += w;
  }

  /// Collapses duplicate masks into ascending mask order (call once after
  /// bulk adds). Weights of equal masks are summed in insertion order; a
  /// distribution whose masks are already strictly ascending is unchanged.
  void Aggregate();

  const std::vector<std::pair<uint64_t, double>>& entries() const {
    return entries_;
  }
  double total() const { return total_; }
  bool empty() const { return entries_.empty(); }

  /// Total weight of outcomes where every predicate in `subset` is true.
  double MassAllTrue(uint64_t subset) const;

  /// Removes outcomes where predicate `bit` is false and drops that bit's
  /// conditioning (keeps the bit in place); used by greedy sequential
  /// planning which conditions on chosen predicates being satisfied.
  MaskDistribution ConditionTrue(int bit) const;

 private:
  std::vector<std::pair<uint64_t, double>> entries_;
  double total_ = 0.0;
};

}  // namespace caqp

#endif  // CAQP_PROB_HISTOGRAM_H_
