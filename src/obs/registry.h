// Metrics registry: named counters, gauges, and histograms shared by every
// layer of the library (planners, executor, network sim, tools).
//
// Design for the hot path:
//  * Counter / Gauge are single std::atomics updated with relaxed ordering —
//    lock-free, one instruction on x86/ARM.
//  * Histogram (obs/histogram.h) is the one distribution metric: lock-free
//    relaxed atomic buckets with a process-wide log-linear layout, so
//    snapshots merge exactly across registries and shards.
//  * Registering a metric takes a mutex, but call sites cache the returned
//    reference (see the CAQP_OBS_* macros in obs.h), so the lock is touched
//    once per call site for the process lifetime.
//  * Metric objects are never destroyed or moved once created; references
//    stay valid until process exit (std::map nodes are stable).

#ifndef CAQP_OBS_REGISTRY_H_
#define CAQP_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/obs.h"

namespace caqp {
namespace obs {

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written value (e.g. a high-water mark or energy level). Lock-free.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of every registered metric, for export.
struct RegistrySnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot hist;
  };
  std::vector<CounterValue> counters;      // sorted by name
  std::vector<GaugeValue> gauges;          // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name

  /// Counter `name`, or 0 if absent. Both lookups binary-search the
  /// name-sorted vectors, so they read snapshots as Snapshot() builds them.
  uint64_t CounterByName(std::string_view name) const;
  /// Histogram `name`, or an empty snapshot if absent.
  HistogramSnapshot HistogramByName(std::string_view name) const;

  /// Merges `other` in, folding the entries of one name into one: counters
  /// sum, gauges take the max, histograms merge bucket by bucket (see
  /// sharded_registry.h). Both snapshots must be sorted by name, and the
  /// result is. Equal names within either side fold too, so merging a
  /// sorted snapshot into an empty one collapses its duplicates.
  void MergeFrom(const RegistrySnapshot& other);
};

class MetricsRegistry {
 public:
  /// Returns the metric registered under `name`, creating it on first use.
  /// The reference is valid for the registry's lifetime. Requesting the
  /// same name as two different metric kinds is a programming error.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;

  /// Zeroes every metric (keeps registrations, so cached references held by
  /// instrumentation call sites stay valid). Intended for tests and for
  /// tools that report per-phase deltas.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry used by the CAQP_OBS_* macros.
MetricsRegistry& DefaultRegistry();

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_REGISTRY_H_
