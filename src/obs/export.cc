#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "core/schema.h"
#include "obs/prometheus.h"
#include "obs/trace_join.h"

namespace caqp {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // %.17g round-trips every double; trim to shortest via %g first.
  std::snprintf(buf, sizeof(buf), "%g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  if (parsed != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // comma already handled when the key was written
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  CAQP_DCHECK(!has_element_.empty());
  CAQP_DCHECK(!pending_key_);
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  CAQP_DCHECK(!has_element_.empty());
  CAQP_DCHECK(!pending_key_);
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view k) {
  CAQP_DCHECK(!has_element_.empty());
  CAQP_DCHECK(!pending_key_);
  if (has_element_.back()) out_ += ',';
  has_element_.back() = true;
  out_ += '"';
  out_ += EscapeJson(k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view v) {
  BeforeValue();
  out_ += '"';
  out_ += EscapeJson(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t v) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  BeforeValue();
  out_ += FormatDouble(v);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

void WriteRegistrySnapshot(JsonWriter& w, const RegistrySnapshot& snap) {
  // JSON and /metrics agree key for key: both export canonical names.
  const RegistrySnapshot canon = CanonicalizeSnapshot(snap);
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& c : canon.counters) w.Key(c.name).UInt(c.value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& g : canon.gauges) w.Key(g.name).Double(g.value);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& h : canon.histograms) {
    w.Key(h.name);
    WriteHistogram(w, h.hist);
  }
  w.EndObject();
  w.EndObject();
}

void WriteHistogram(JsonWriter& w, const HistogramSnapshot& hist) {
  w.BeginObject();
  w.Key("count").UInt(hist.count);
  w.Key("sum").Double(hist.sum);
  w.Key("min").Double(hist.min);
  w.Key("max").Double(hist.max);
  w.Key("mean").Double(hist.mean());
  w.Key("p50").Double(hist.p50());
  w.Key("p90").Double(hist.p90());
  w.Key("p99").Double(hist.p99());
  w.Key("p999").Double(hist.p999());
  w.Key("buckets").BeginArray();
  for (size_t i = 0; i < kHistNumBuckets; ++i) {
    if (hist.buckets[i] == 0) continue;
    // [index, count, lower bound, upper bound]: the bounds make exported
    // histograms post-processable without hard-coding the bucket layout
    // (the overflow bucket's +inf upper bound serializes as null).
    w.BeginArray()
        .UInt(i)
        .UInt(hist.buckets[i])
        .Double(HistogramBucketLowerBound(i))
        .Double(HistogramBucketUpperBound(i))
        .EndArray();
  }
  w.EndArray();
  w.EndObject();
}

namespace {

/// The trace JSON's spelling of a plan identity.
void WritePlanContext(JsonWriter& w, const PlanKey& plan) {
  w.Key("plan_sig").UInt(plan.query_sig);
  w.Key("planner_fp").UInt(plan.planner_fingerprint);
  w.Key("estimator_version").UInt(plan.estimator_version);
}

void WriteTraceEvent(JsonWriter& w, const SpanEvent& ev) {
  w.BeginObject();
  w.Key("name").String(ev.name);
  w.Key("cat").String("caqp");
  w.Key("ph").String("X");
  // Trace-event timestamps are microseconds; keep sub-us precision as a
  // fractional part so short executor spans stay visible.
  w.Key("ts").Double(static_cast<double>(ev.start_ns) / 1e3);
  w.Key("dur").Double(static_cast<double>(ev.dur_ns) / 1e3);
  w.Key("pid").Int(1);
  w.Key("tid").Int(static_cast<int64_t>(ev.worker));
  w.Key("args").BeginObject();
  w.Key("trace_id").UInt(ev.trace_id);
  w.Key("span_id").UInt(ev.span_id);
  w.Key("parent_id").UInt(ev.parent_id);
  // Plan identity, the join key against calibration reports; omitted while
  // the request has none (all zero) so non-serve traces stay unchanged.
  if (ev.plan != PlanKey{}) WritePlanContext(w, ev.plan);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string TraceEventsToJson(const TraceRecorder& recorder) {
  return TraceEventsToJson(recorder, recorder.Events());
}

std::string TraceEventsToJson(const TraceRecorder& recorder,
                              const std::vector<SpanEvent>& events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  // Thread-name metadata turns raw tids into "worker N" rows in the viewer.
  for (size_t worker = 0; worker < recorder.num_workers(); ++worker) {
    char name[32];
    std::snprintf(name, sizeof(name), "worker %zu", worker);
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Int(1);
    w.Key("tid").Int(static_cast<int64_t>(worker));
    w.Key("args").BeginObject().Key("name").String(name).EndObject();
    w.EndObject();
  }
  for (const SpanEvent& ev : events) WriteTraceEvent(w, ev);
  w.EndArray();
  w.Key("caqpFlightRecorder").BeginArray();
  for (const TraceRecorder::Incident& incident : recorder.Incidents()) {
    w.BeginObject();
    w.Key("trace_id").UInt(incident.trace_id);
    w.Key("reason").String(incident.reason);
    w.Key("worker").Int(static_cast<int64_t>(incident.worker));
    w.Key("at_us").Double(static_cast<double>(incident.at_ns) / 1e3);
    WritePlanContext(w, incident.plan);
    w.Key("events").BeginArray();
    for (const SpanEvent& ev : incident.events) WriteTraceEvent(w, ev);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("caqpDroppedSpanEvents").UInt(recorder.dropped_events());
  w.EndObject();
  return w.TakeString();
}

std::string UnifiedTraceToJson(const TraceRecorder& recorder) {
  const TraceJoinResult joined = JoinTraces(recorder.Events());
  std::vector<SpanEvent> flat;
  flat.reserve(joined.total_events);
  for (const JoinedTrace& trace : joined.traces) {
    flat.insert(flat.end(), trace.events.begin(), trace.events.end());
  }
  std::string doc = TraceEventsToJson(recorder, flat);

  // Splice the join summary in before the closing brace; the document the
  // overload returns is always a single JSON object.
  JsonWriter w;
  w.BeginObject();
  w.Key("traces").BeginArray();
  for (const JoinedTrace& trace : joined.traces) {
    w.BeginObject();
    w.Key("trace_id").UInt(trace.trace_id);
    w.Key("root_span_id").UInt(trace.root_span_id);
    w.Key("root_name").String(trace.root_name);
    w.Key("events").UInt(trace.events.size());
    w.Key("adopted_orphans").UInt(trace.adopted_orphans);
    w.Key("duplicate_span_ids").UInt(trace.duplicate_span_ids);
    w.Key("all_under_root").Bool(trace.AllUnderRoot());
    w.EndObject();
  }
  w.EndArray();
  w.Key("total_adopted").UInt(joined.total_adopted);
  w.Key("total_duplicates").UInt(joined.total_duplicates);
  w.EndObject();

  CAQP_DCHECK(!doc.empty() && doc.back() == '}');
  doc.pop_back();
  doc += ",\"caqpTraceJoin\":";
  doc += w.TakeString();
  doc += '}';
  return doc;
}

void WritePlannerStats(JsonWriter& w, const PlannerStats& stats) {
  w.BeginObject();
  w.Key("planner").String(stats.planner);
  w.Key("memo_hits").UInt(stats.memo_hits);
  w.Key("memo_misses").UInt(stats.memo_misses);
  w.Key("bound_prunes").UInt(stats.bound_prunes);
  w.Key("candidates_tried").UInt(stats.candidates_tried);
  w.Key("split_searches").UInt(stats.split_searches);
  w.Key("splits_considered").UInt(stats.splits_considered);
  w.Key("splits_taken").UInt(stats.splits_taken);
  w.Key("queue_high_water").UInt(stats.queue_high_water);
  w.Key("expansions_skipped").UInt(stats.expansions_skipped);
  w.Key("benefit_first").Double(stats.benefit_first);
  w.Key("benefit_last").Double(stats.benefit_last);
  w.Key("benefit_total").Double(stats.benefit_total);
  w.Key("seq_solves").UInt(stats.seq_solves);
  w.Key("expected_cost").Double(stats.expected_cost);
  w.EndObject();
}

void WriteAttributeProfile(JsonWriter& w, const AttributeProfile& profile,
                           const Schema* schema) {
  w.BeginObject();
  w.Key("tuples").UInt(profile.tuples());
  w.Key("matches").UInt(profile.matches());
  w.Key("mean_cost").Double(profile.MeanCost());
  w.Key("attributes").BeginArray();
  for (size_t a = 0; a < profile.num_attributes(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (profile.count(attr) == 0) continue;  // only acquired attributes
    w.BeginObject();
    w.Key("attr").UInt(a);
    if (schema != nullptr) w.Key("name").String(schema->name(attr));
    w.Key("acquisitions").UInt(profile.count(attr));
    w.Key("acquisition_rate").Double(profile.AcquisitionRate(attr));
    w.Key("total_cost").Double(profile.cost(attr));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::string RegistryToJson(const MetricsRegistry& registry) {
  JsonWriter w;
  WriteRegistrySnapshot(w, registry.Snapshot());
  return w.TakeString();
}

std::string RegistryToMarkdown(const MetricsRegistry& registry) {
  const RegistrySnapshot snap = registry.Snapshot();
  std::string out;
  char buf[256];
  if (!snap.counters.empty()) {
    out += "| counter | value |\n|---|---|\n";
    for (const auto& c : snap.counters) {
      std::snprintf(buf, sizeof(buf), "| %s | %" PRIu64 " |\n",
                    c.name.c_str(), c.value);
      out += buf;
    }
  }
  if (!snap.gauges.empty()) {
    out += "\n| gauge | value |\n|---|---|\n";
    for (const auto& g : snap.gauges) {
      std::snprintf(buf, sizeof(buf), "| %s | %g |\n", g.name.c_str(),
                    g.value);
      out += buf;
    }
  }
  if (!snap.histograms.empty()) {
    out +=
        "\n| histogram | count | mean | min | p50 | p90 | p99 | p99.9 | max "
        "|\n|---|---|---|---|---|---|---|---|---|\n";
    for (const auto& h : snap.histograms) {
      std::snprintf(buf, sizeof(buf),
                    "| %s | %" PRIu64 " | %g | %g | %g | %g | %g | %g | %g |\n",
                    h.name.c_str(), h.hist.count, h.hist.mean(), h.hist.min,
                    h.hist.p50(), h.hist.p90(), h.hist.p99(), h.hist.p999(),
                    h.hist.max);
      out += buf;
    }
  }
  return out;
}

bool WriteFileOrComplain(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  if (!out) {
    std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace caqp
