// caqp::obs — observability switchboard.
//
// Instrumentation across the library (planner tracing, executor traces,
// network counters) has one off switch: obs::SetEnabled(false) turns the
// macros into a single relaxed atomic load + untaken branch (verified < 5%
// ExecutePlan overhead by bench/bench_obs_overhead.cc).
//
// The macros funnel into the process-wide DefaultRegistry() (registry.h).
// Each macro caches its metric pointer in a function-local static, so the
// by-name lookup happens once per call site, never on the hot path.

#ifndef CAQP_OBS_OBS_H_
#define CAQP_OBS_OBS_H_

#include <atomic>
#include <cstdint>

namespace caqp {
namespace obs {

namespace internal {
// Single process-wide runtime switch; relaxed is fine (monotonic flag reads
// on hot paths, writes only from test/tool setup code). An inline variable
// (constant-initialized) rather than a function-local static: readers must
// not pay an initialization-guard check per call.
inline std::atomic<bool> g_enabled{true};
}  // namespace internal

/// Runtime master switch for the CAQP_OBS_* macros.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace caqp

// These macros require registry.h to be included by the instrumented file.
// The Enabled() test comes first so the disabled path is one relaxed load
// and an untaken branch — in particular no static-initialization guard.
// The metric reference is then cached per call site; the by-name lookup
// runs once, on the first enabled hit.
#define CAQP_OBS_COUNTER_ADD(name, n)                                    \
  do {                                                                   \
    if (::caqp::obs::Enabled()) {                                        \
      static ::caqp::obs::Counter& caqp_obs_c =                          \
          ::caqp::obs::DefaultRegistry().GetCounter(name);               \
      caqp_obs_c.Add(n);                                                 \
    }                                                                    \
  } while (0)

#define CAQP_OBS_COUNTER_INC(name) CAQP_OBS_COUNTER_ADD(name, 1)

#define CAQP_OBS_GAUGE_SET(name, v)                                      \
  do {                                                                   \
    if (::caqp::obs::Enabled()) {                                        \
      static ::caqp::obs::Gauge& caqp_obs_g =                            \
          ::caqp::obs::DefaultRegistry().GetGauge(name);                 \
      caqp_obs_g.Set(v);                                                 \
    }                                                                    \
  } while (0)

#define CAQP_OBS_HIST_RECORD(name, v)                                    \
  do {                                                                   \
    if (::caqp::obs::Enabled()) {                                        \
      static ::caqp::obs::Histogram& caqp_obs_h =                        \
          ::caqp::obs::DefaultRegistry().GetHistogram(name);             \
      caqp_obs_h.Record(v);                                              \
    }                                                                    \
  } while (0)

#endif  // CAQP_OBS_OBS_H_
