// Structured export: a dependency-free streaming JSON writer plus
// serializers for the obs data types (registry snapshots, planner stats,
// attribute profiles) and a human-readable markdown summary. Used by
// tools/caqp_plan --trace-out, tools/caqp_simulate --metrics-out, and the
// bench_* --json-out run files.

#ifndef CAQP_OBS_EXPORT_H_
#define CAQP_OBS_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/planner_stats.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace caqp {

class Schema;  // core/schema.h; only names are read here.

namespace obs {

/// Minimal streaming JSON writer. Keys/values must be emitted in valid
/// order (Key before each value inside an object); CAQP_DCHECK enforces
/// nesting. Doubles print with enough digits to round-trip; non-finite
/// doubles emit null (JSON has no inf/nan).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view k);
  JsonWriter& String(std::string_view v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();

  /// The document so far; valid once every scope is closed.
  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void BeforeValue();
  std::string out_;
  // Per open scope: true once the scope has at least one element.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string EscapeJson(std::string_view s);

/// Emits `snap` as {"counters":{...},"gauges":{...},
/// "histograms":{name:{...}}}. Writer must be positioned where a value is
/// expected.
void WriteRegistrySnapshot(JsonWriter& w, const RegistrySnapshot& snap);

/// Emits a histogram snapshot as an object:
///   {"count":N,"sum":S,"min":m,"max":M,"mean":mu,
///    "p50":...,"p90":...,"p99":...,"p999":...,
///    "buckets":[[idx,count,lo,hi],...]}    // sparse: only non-empty buckets
/// Each bucket entry carries its [lo, hi) value bounds alongside the count
/// so exports are post-processable without knowledge of the bucket layout
/// (the overflow bucket's +inf bound serializes as null). Because every
/// Histogram shares the fixed layout (histogram.h), the sparse entries plus
/// count/sum/min/max also reconstruct the snapshot exactly (round-trip
/// tested in tests/obs_test.cc).
void WriteHistogram(JsonWriter& w, const HistogramSnapshot& hist);

/// Serializes a TraceRecorder as Chrome/Perfetto trace-event JSON
/// (https://ui.perfetto.dev opens it directly):
///   {"displayTimeUnit":"ms",
///    "traceEvents":[{"name","cat":"caqp","ph":"X","ts":us,"dur":us,
///                    "pid":1,"tid":worker,
///                    "args":{"trace_id","span_id","parent_id"}},...],
///    "caqpFlightRecorder":[{"trace_id","reason","worker","at_us",
///                           "events":[...]},...],
///    "caqpDroppedSpanEvents":N}
/// Spans nest in the viewer by time containment within a tid ("X" complete
/// events); args carry the exact parentage for programmatic consumers.
std::string TraceEventsToJson(const TraceRecorder& recorder);

/// As above, but over an explicit event list (the recorder still supplies
/// the worker count for thread names, the flight-recorder incidents, and
/// the drop counter). Used by UnifiedTraceToJson after a TraceJoin pass.
std::string TraceEventsToJson(const TraceRecorder& recorder,
                              const std::vector<SpanEvent>& events);

/// The dist-mode trace export: runs TraceJoin over the recorder's events so
/// shard spans land under their coordinator request span, then serializes
/// the joined stream as one Perfetto document. The document additionally
/// carries a "caqpTraceJoin" summary (per-trace root span, adopted-orphan
/// and duplicate-id counts) so CI can validate the join without replaying
/// the parentage walk.
std::string UnifiedTraceToJson(const TraceRecorder& recorder);

/// Emits `stats` as an object of its non-identifying fields.
void WritePlannerStats(JsonWriter& w, const PlannerStats& stats);

/// Emits a per-attribute acquisition histogram. If `schema` is non-null
/// attribute names are included.
void WriteAttributeProfile(JsonWriter& w, const AttributeProfile& profile,
                           const Schema* schema);

/// One-call helpers over the default registry.
std::string RegistryToJson(const MetricsRegistry& registry);

/// Human-readable markdown tables (counters / gauges / histograms) for
/// terminal summaries.
std::string RegistryToMarkdown(const MetricsRegistry& registry);

/// Overwrites `path` with `content`. Returns false on I/O failure.
bool WriteFileOrComplain(const std::string& path, const std::string& content);

}  // namespace obs
}  // namespace caqp

#endif  // CAQP_OBS_EXPORT_H_
