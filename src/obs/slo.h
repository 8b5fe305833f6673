// obs::SloMonitor — multi-window burn-rate tracking for the serving tier.
//
// Two SLOs, following the classic error-budget formulation:
//
//  * availability — fraction of requests that return a *usable* answer:
//    status OK and a defined (non-Unknown) verdict. Degradation that turns
//    answers into Unknown (dead shards, fault storms, load shedding)
//    consumes availability budget even though the request "succeeded".
//  * latency — fraction of requests finishing under a threshold.
//
// Burn rate = (observed error fraction) / (1 - target): 1.0 means the error
// budget is being consumed exactly at the sustainable rate; 10 means the
// budget burns 10x too fast. An alert fires only when BOTH a fast and a
// slow window exceed their thresholds (the Google SRE multi-window rule):
// the fast window makes detection prompt, the slow window suppresses blips.
// Production policies use 5m/1h windows; the defaults here are scaled to
// bench time (seconds) and fully configurable for real deployments.
//
// Implementation: a ring of time buckets with relaxed-atomic counters.
// Recording is lock-free (a few relaxed RMWs); burn evaluation walks the
// ring, and is amortized by only running every check_interval-th record.
// A bucket that falls out of the slow window is lazily re-epoched by the
// first writer that lands on it; concurrent readers may observe a bucket
// mid-reset, which can transiently under-count one bucket — acceptable for
// an alerting signal, and why firing additionally requires
// min_window_requests.
//
// The on_burn hook runs synchronously on the recording thread (a serve
// worker), so it must be cheap and thread-safe: QueryService wires it to a
// counter bump, a flight-recorder incident dump, and arming its
// burn-shedding window. Consecutive fires are separated by cooloff_ns.

#ifndef CAQP_OBS_SLO_H_
#define CAQP_OBS_SLO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>

namespace caqp {
namespace obs {

class SloMonitor {
 public:
  /// Which SLO tripped. Values double as indices into internal arrays.
  enum class Slo : int { kAvailability = 0, kLatency = 1 };

  struct BurnEvent {
    Slo slo = Slo::kAvailability;
    double fast_burn = 0.0;  ///< burn rate over the fast window
    double slow_burn = 0.0;  ///< burn rate over the slow window
    uint64_t at_ns = 0;      ///< monotonic fire time
  };

  struct Options {
    /// Availability SLO target: fraction of requests with a usable answer.
    double availability_target = 0.999;
    /// Latency SLO: this fraction of requests under the threshold.
    double latency_target = 0.99;
    double latency_threshold_seconds = 0.100;
    /// Multi-window pair, in monotonic nanoseconds. Production shapes are
    /// 5m/1h; the defaults scale that 60:1 down to 5s/60s so bench runs and
    /// tests exercise real window arithmetic in seconds.
    uint64_t fast_window_ns = 5ull * 1000 * 1000 * 1000;
    uint64_t slow_window_ns = 60ull * 1000 * 1000 * 1000;
    /// Burn-rate thresholds per window (14.4/6 are the canonical page-level
    /// numbers for 5m/1h on a 30d budget).
    double fast_burn_threshold = 14.4;
    double slow_burn_threshold = 6.0;
    /// Never fire before this many requests sit in the fast window.
    uint64_t min_window_requests = 32;
    /// Minimum spacing between fires of the same SLO.
    uint64_t cooloff_ns = 5ull * 1000 * 1000 * 1000;
    /// Evaluate burn every this-many records (amortizes the ring walk).
    uint64_t check_interval = 64;
    /// Fired on the recording thread; must be cheap and thread-safe.
    std::function<void(const BurnEvent&)> on_burn;
  };

  /// Point-in-time burn view, exported as gauges on /metrics.
  struct Snapshot {
    uint64_t requests_fast = 0;  ///< requests in the fast window
    uint64_t requests_slow = 0;
    double availability_ratio = 1.0;  ///< over the slow window
    double availability_fast_burn = 0.0;
    double availability_slow_burn = 0.0;
    double latency_ratio = 1.0;  ///< fraction under threshold, slow window
    double latency_fast_burn = 0.0;
    double latency_slow_burn = 0.0;
  };

  explicit SloMonitor(Options options);

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Records one finished request. `available` is "usable answer" as
  /// defined above; `now_ns` is the monotonic completion tick (passed in so
  /// callers who already read the clock don't read it twice). Thread-safe,
  /// lock-free; every check_interval-th call evaluates the burn windows and
  /// may invoke on_burn.
  void RecordRequest(uint64_t now_ns, bool available, double latency_seconds);

  /// Evaluates both SLOs' windows now (also called from RecordRequest).
  void Evaluate(uint64_t now_ns);

  Snapshot GetSnapshot(uint64_t now_ns) const;

  uint64_t burns_fired() const {
    return burns_fired_.load(std::memory_order_relaxed);
  }

 private:
  /// Ring resolution: the slow window is split into this many buckets; the
  /// fast window covers ceil(fast/slow * kBuckets) of them (>= 1).
  static constexpr size_t kBuckets = 64;

  struct alignas(64) Bucket {
    std::atomic<uint64_t> epoch{~0ull};  ///< now_ns / bucket_width_ owner
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> unavailable{0};
    std::atomic<uint64_t> slow{0};  ///< over the latency threshold
  };

  struct WindowCounts {
    uint64_t fast_total = 0, fast_bad = 0;
    uint64_t slow_total = 0, slow_bad = 0;
  };

  Bucket& BucketFor(uint64_t now_ns);
  WindowCounts Count(uint64_t now_ns, Slo slo) const;
  static double Burn(uint64_t bad, uint64_t total, double target);

  const Options options_;
  uint64_t bucket_width_ns_ = 1;
  size_t fast_buckets_ = 1;
  std::array<Bucket, kBuckets> ring_;
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> burns_fired_{0};
  std::array<std::atomic<uint64_t>, 2> last_fire_ns_{};  // per Slo
};

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_SLO_H_
