// Prometheus text exposition (format 0.0.4) plus the canonical metric-name
// scheme shared by every export surface.
//
// Internally metrics keep their historical dotted names ("serve.requests",
// "dist.shard.exec_seconds") — hundreds of call sites cache references by
// those strings and renaming them buys nothing. At the export boundary,
// every name is canonicalized to one snake_case scheme with unit suffixes:
//
//   * '.' and any non-[a-zA-Z0-9_] byte become '_';
//   * counters gain a "_total" suffix unless they already carry one
//     ("serve.requests" -> "serve_requests_total");
//   * gauges, stats, and histograms keep their unit suffix as spelled at
//     the call site ("_seconds", "_ratio") — the registration name is the
//     contract;
//   * a leading digit is prefixed with '_' (Prometheus name grammar).
//
// The JSON export (obs/export.h) emits the same canonical names, so the
// /metrics endpoint and --metrics-out files agree key for key. Canonical
// names are the only exported names: no legacy dotted key is kept.
//
// Exposition notes: histograms render as classic cumulative histograms over
// the native log-linear bucket bounds (obs/histogram.h) — only non-empty
// buckets plus the mandatory "+Inf" are emitted, which Prometheus accepts
// (le values strictly increase). StreamingStats render as summaries with
// their p50/p95 quantiles.

#ifndef CAQP_OBS_PROMETHEUS_H_
#define CAQP_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "obs/registry.h"

namespace caqp {
namespace obs {

enum class MetricKind { kCounter, kGauge, kStat, kHistogram };

/// Canonical exported name for a metric registered as `name`, per the rules
/// in the header comment.
std::string CanonicalMetricName(std::string_view name, MetricKind kind);

/// Rewrites every name in `snap` to its canonical form. Sort order by name
/// is preserved (re-sorted after renaming).
RegistrySnapshot CanonicalizeSnapshot(RegistrySnapshot snap);

/// Merges `src` into `*dst` with ShardedRegistry semantics: counters sum,
/// gauges max, histograms bucket-merge. Stats keep the first-seen entry on
/// a name collision (reservoirs do not merge; prefer histograms across
/// registries). Used to combine the serving tier's ShardedRegistry with the
/// process-global DefaultRegistry for one scrape.
void MergeSnapshotInto(RegistrySnapshot* dst, const RegistrySnapshot& src);

/// Renders `snap` as Prometheus text exposition 0.0.4. Names in `snap` are
/// canonicalized here; callers pass raw snapshots.
std::string RenderPrometheusText(const RegistrySnapshot& snap);

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_PROMETHEUS_H_
