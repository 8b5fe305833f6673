#include "obs/slo.h"

#include <algorithm>

namespace caqp {
namespace obs {

SloMonitor::SloMonitor(Options options) : options_(std::move(options)) {
  const uint64_t slow = std::max<uint64_t>(options_.slow_window_ns, kBuckets);
  bucket_width_ns_ = slow / kBuckets;
  const uint64_t fast =
      std::clamp<uint64_t>(options_.fast_window_ns, bucket_width_ns_, slow);
  fast_buckets_ = static_cast<size_t>(
      (fast + bucket_width_ns_ - 1) / bucket_width_ns_);
  for (auto& f : last_fire_ns_) f.store(0, std::memory_order_relaxed);
}

SloMonitor::Bucket& SloMonitor::BucketFor(uint64_t now_ns) {
  const uint64_t epoch = now_ns / bucket_width_ns_;
  Bucket& b = ring_[epoch % kBuckets];
  uint64_t cur = b.epoch.load(std::memory_order_acquire);
  if (cur != epoch) {
    // First writer to land on a stale bucket re-epochs it. The CAS winner
    // resets the counters; a concurrent reader may see the bucket mid-reset
    // (transient under-count of one bucket — see header).
    if (b.epoch.compare_exchange_strong(cur, epoch,
                                        std::memory_order_acq_rel)) {
      b.total.store(0, std::memory_order_relaxed);
      b.unavailable.store(0, std::memory_order_relaxed);
      b.slow.store(0, std::memory_order_relaxed);
    }
  }
  return b;
}

void SloMonitor::RecordRequest(uint64_t now_ns, bool available,
                               double latency_seconds) {
  Bucket& b = BucketFor(now_ns);
  b.total.fetch_add(1, std::memory_order_relaxed);
  if (!available) b.unavailable.fetch_add(1, std::memory_order_relaxed);
  if (latency_seconds > options_.latency_threshold_seconds) {
    b.slow.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t n = records_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.check_interval == 0 || n % options_.check_interval == 0) {
    Evaluate(now_ns);
  }
}

SloMonitor::WindowCounts SloMonitor::Count(uint64_t now_ns, Slo slo) const {
  WindowCounts out;
  const uint64_t now_epoch = now_ns / bucket_width_ns_;
  for (size_t i = 0; i < kBuckets; ++i) {
    const Bucket& b = ring_[i];
    const uint64_t epoch = b.epoch.load(std::memory_order_acquire);
    if (epoch == ~0ull || epoch > now_epoch) continue;
    const uint64_t age = now_epoch - epoch;
    if (age >= kBuckets) continue;  // fell out of the slow window
    const uint64_t total = b.total.load(std::memory_order_relaxed);
    const uint64_t bad =
        slo == Slo::kAvailability
            ? b.unavailable.load(std::memory_order_relaxed)
            : b.slow.load(std::memory_order_relaxed);
    out.slow_total += total;
    out.slow_bad += bad;
    if (age < fast_buckets_) {
      out.fast_total += total;
      out.fast_bad += bad;
    }
  }
  return out;
}

double SloMonitor::Burn(uint64_t bad, uint64_t total, double target) {
  if (total == 0) return 0.0;
  const double budget = 1.0 - target;
  if (budget <= 0.0) return bad > 0 ? 1e9 : 0.0;
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

void SloMonitor::Evaluate(uint64_t now_ns) {
  for (Slo slo : {Slo::kAvailability, Slo::kLatency}) {
    const WindowCounts c = Count(now_ns, slo);
    if (c.fast_total < options_.min_window_requests) continue;
    const double target = slo == Slo::kAvailability
                              ? options_.availability_target
                              : options_.latency_target;
    const double fast_burn = Burn(c.fast_bad, c.fast_total, target);
    const double slow_burn = Burn(c.slow_bad, c.slow_total, target);
    if (fast_burn < options_.fast_burn_threshold ||
        slow_burn < options_.slow_burn_threshold) {
      continue;
    }
    auto& last = last_fire_ns_[static_cast<size_t>(slo)];
    uint64_t prev = last.load(std::memory_order_acquire);
    if (prev != 0 && now_ns - prev < options_.cooloff_ns) continue;
    // One thread wins the fire; losers observed a concurrent fire inside
    // the cooloff and skip.
    if (!last.compare_exchange_strong(prev, now_ns,
                                      std::memory_order_acq_rel)) {
      continue;
    }
    burns_fired_.fetch_add(1, std::memory_order_relaxed);
    if (options_.on_burn) {
      options_.on_burn(BurnEvent{slo, fast_burn, slow_burn, now_ns});
    }
  }
}

SloMonitor::Snapshot SloMonitor::GetSnapshot(uint64_t now_ns) const {
  Snapshot snap;
  const WindowCounts avail = Count(now_ns, Slo::kAvailability);
  const WindowCounts lat = Count(now_ns, Slo::kLatency);
  snap.requests_fast = avail.fast_total;
  snap.requests_slow = avail.slow_total;
  if (avail.slow_total > 0) {
    snap.availability_ratio =
        1.0 - static_cast<double>(avail.slow_bad) /
                  static_cast<double>(avail.slow_total);
    snap.latency_ratio = 1.0 - static_cast<double>(lat.slow_bad) /
                                   static_cast<double>(lat.slow_total);
  }
  snap.availability_fast_burn =
      Burn(avail.fast_bad, avail.fast_total, options_.availability_target);
  snap.availability_slow_burn =
      Burn(avail.slow_bad, avail.slow_total, options_.availability_target);
  snap.latency_fast_burn =
      Burn(lat.fast_bad, lat.fast_total, options_.latency_target);
  snap.latency_slow_burn =
      Burn(lat.slow_bad, lat.slow_total, options_.latency_target);
  return snap;
}

}  // namespace obs
}  // namespace caqp
