// obs::Histogram — fixed-layout log-linear latency histogram.
//
// The library's one distribution metric: Record() is lock-free (relaxed
// atomic adds, no mutex) and histograms are mergeable, so each serve worker
// owns one and Snapshot()-time aggregation produces whole-service
// percentiles without any cross-worker write sharing.
//
// Bucket layout (identical for every histogram in the process, so merging
// is an element-wise add):
//
//   bucket 0                       underflow: v < 2^kMinExp
//   buckets 1 .. N-2               log-linear: each power-of-two octave
//                                  [2^e, 2^(e+1)) is divided into
//                                  kSubBuckets equal-width linear buckets,
//                                  for e in [kMinExp, kMaxExp)
//   bucket N-1                     overflow: v >= 2^kMaxExp
//
// With kMinExp=-20, kMaxExp=16, kSubBuckets=8 the range ~0.95e-6..65536 is
// covered by 288 log-linear buckets with <= 1/8 relative quantile error —
// ample for p50/p90/p99/p99.9 latency SLOs in seconds (the serve layer's
// unit) and for the network simulator's per-epoch acquisition costs, which
// reach about 1000. Values are dimensionless doubles.

#ifndef CAQP_OBS_HISTOGRAM_H_
#define CAQP_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace caqp {
namespace obs {

/// Linear sub-buckets per power-of-two octave.
inline constexpr int kHistSubBuckets = 8;
/// Lowest bucketed exponent: values below 2^kHistMinExp underflow.
inline constexpr int kHistMinExp = -20;
/// Values >= 2^kHistMaxExp overflow.
inline constexpr int kHistMaxExp = 16;
/// Total bucket count including the underflow and overflow buckets.
inline constexpr size_t kHistNumBuckets =
    2 + static_cast<size_t>(kHistMaxExp - kHistMinExp) * kHistSubBuckets;

/// Bucket index for `v` per the fixed layout above. Non-positive and
/// sub-range values land in the underflow bucket.
size_t HistogramBucketIndex(double v);
/// Inclusive lower bound of bucket `idx` (0 for the underflow bucket).
double HistogramBucketLowerBound(size_t idx);
/// Exclusive upper bound of bucket `idx` (+inf for the overflow bucket).
double HistogramBucketUpperBound(size_t idx);

/// Plain-value copy of a Histogram: mergeable, serializable, and the carrier
/// for quantile queries. Merging two snapshots is element-wise, so shard
/// aggregation and (de)serialization round-trips are exact.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< smallest recorded value; 0 when count == 0
  double max = 0.0;  ///< largest recorded value; 0 when count == 0
  std::array<uint64_t, kHistNumBuckets> buckets{};

  void Merge(const HistogramSnapshot& other);

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

  /// Approximate q-quantile (q in [0,1]) with linear interpolation inside
  /// the target bucket, clamped to [min, max]. 0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }
  double p999() const { return Quantile(0.999); }
};

/// Lock-free recording histogram. Designed single-writer (one owner thread
/// records, anyone snapshots), but every update is a relaxed atomic RMW, so
/// concurrent writers (e.g. the process-global registry) stay correct — they
/// merely contend on the cache line the way any shared counter does.
class Histogram {
 public:
  Histogram();

  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const;

  /// Adds a snapshot's contents (e.g. restoring a serialized histogram).
  void MergeFrom(const HistogramSnapshot& snap);

  /// Zeroes every bucket and moment; safe against concurrent Record only in
  /// the trivial sense (no torn values), intended for quiesced use.
  void Reset();

  // Convenience quantile views over a fresh snapshot.
  double Quantile(double q) const { return Snapshot().Quantile(q); }
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }
  double p999() const { return Quantile(0.999); }

 private:
  std::atomic<uint64_t> count_;
  std::atomic<double> sum_;
  std::atomic<double> min_;  ///< +inf until the first Record
  std::atomic<double> max_;  ///< -inf until the first Record
  std::array<std::atomic<uint64_t>, kHistNumBuckets> buckets_;
};

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_HISTOGRAM_H_
