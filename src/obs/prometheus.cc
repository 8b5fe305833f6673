#include "obs/prometheus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace caqp {
namespace obs {

namespace {

bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Vec>
void SortByName(Vec& v) {
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

template <typename Vec>
void RenameAll(Vec& v, MetricKind kind) {
  for (auto& entry : v) entry.name = CanonicalMetricName(entry.name, kind);
  SortByName(v);
}

// Distinct internal names can collapse to one canonical name (dots and
// underscores both map to '_'). A duplicate series is invalid exposition,
// so after renaming merge adjacent same-name entries with the same
// semantics MergeSnapshotInto uses.
template <typename Vec, typename MergeFn>
void MergeAdjacentDuplicates(Vec& v, MergeFn merge) {
  size_t out = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (out > 0 && v[out - 1].name == v[i].name) {
      merge(v[out - 1], v[i]);
    } else {
      if (out != i) v[out] = std::move(v[i]);
      ++out;
    }
  }
  v.resize(out);
}

}  // namespace

std::string CanonicalMetricName(std::string_view name, MetricKind kind) {
  std::string out;
  out.reserve(name.size() + 6);
  for (char c : name) out += ValidNameChar(c) ? c : '_';
  if (out.empty()) out += '_';
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  if (kind == MetricKind::kCounter && !EndsWith(out, "_total")) {
    out += "_total";
  }
  return out;
}

RegistrySnapshot CanonicalizeSnapshot(RegistrySnapshot snap) {
  RenameAll(snap.counters, MetricKind::kCounter);
  RenameAll(snap.gauges, MetricKind::kGauge);
  RenameAll(snap.histograms, MetricKind::kHistogram);
  MergeAdjacentDuplicates(snap.counters,
                          [](auto& a, const auto& b) { a.value += b.value; });
  MergeAdjacentDuplicates(snap.gauges, [](auto& a, const auto& b) {
    a.value = std::max(a.value, b.value);
  });
  MergeAdjacentDuplicates(snap.histograms, [](auto& a, const auto& b) {
    a.hist.Merge(b.hist);
  });
  return snap;
}

void MergeSnapshotInto(RegistrySnapshot* dst, const RegistrySnapshot& src) {
  for (const auto& c : src.counters) {
    auto it = std::find_if(dst->counters.begin(), dst->counters.end(),
                           [&](const auto& e) { return e.name == c.name; });
    if (it == dst->counters.end()) {
      dst->counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  for (const auto& g : src.gauges) {
    auto it = std::find_if(dst->gauges.begin(), dst->gauges.end(),
                           [&](const auto& e) { return e.name == g.name; });
    if (it == dst->gauges.end()) {
      dst->gauges.push_back(g);
    } else {
      it->value = std::max(it->value, g.value);
    }
  }
  for (const auto& h : src.histograms) {
    auto it = std::find_if(dst->histograms.begin(), dst->histograms.end(),
                           [&](const auto& e) { return e.name == h.name; });
    if (it == dst->histograms.end()) {
      dst->histograms.push_back(h);
    } else {
      it->hist.Merge(h.hist);
    }
  }
  SortByName(dst->counters);
  SortByName(dst->gauges);
  SortByName(dst->histograms);
}

std::string RenderPrometheusText(const RegistrySnapshot& raw) {
  const RegistrySnapshot snap = CanonicalizeSnapshot(raw);
  std::string out;
  out.reserve(4096);
  char buf[128];

  for (const auto& c : snap.counters) {
    out += "# TYPE " + c.name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(c.value));
    out += c.name + " " + buf + "\n";
  }
  for (const auto& g : snap.gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + FormatValue(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kHistNumBuckets; ++i) {
      if (h.hist.buckets[i] == 0) continue;
      cumulative += h.hist.buckets[i];
      const double ub = HistogramBucketUpperBound(i);
      // The overflow bucket's +inf bound folds into the mandatory +Inf
      // line below rather than duplicating it.
      if (std::isinf(ub)) continue;
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(cumulative));
      out += h.name + "_bucket{le=\"" + FormatValue(ub) + "\"} " + buf + "\n";
    }
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(h.hist.count));
    out += h.name + "_bucket{le=\"+Inf\"} " + buf + "\n";
    out += h.name + "_sum " + FormatValue(h.hist.sum) + "\n";
    out += h.name + "_count " + buf + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace caqp
