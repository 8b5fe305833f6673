// caqp::obs tests: registry metrics (counters, gauges, streaming stats),
// the JSON writer, structured export of snapshots / planner stats /
// attribute profiles, and the planner-stats plumbing on the real planners.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"
#include "obs/planner_stats.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

TEST(RegistryTest, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.GetCounter("test.counter");
  c.Increment();
  c.Add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name returns the same object.
  EXPECT_EQ(&reg.GetCounter("test.counter"), &c);

  obs::Gauge& g = reg.GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  reg.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(RegistryTest, StreamingStatMoments) {
  obs::StreamingStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Record(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RegistryTest, StreamingStatQuantilesExactBelowCapacity) {
  obs::StreamingStat s;
  for (int i = 1; i <= 100; ++i) s.Record(static_cast<double>(i));
  // 1..100 fits in the reservoir, so quantiles are exact (interpolated).
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.p95(), 95.05, 1e-9);
  EXPECT_NEAR(s.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Quantile(1.0), 100.0, 1e-9);
}

TEST(RegistryTest, StreamingStatReservoirStaysBounded) {
  obs::StreamingStat s;
  for (int i = 0; i < 100000; ++i) s.Record(static_cast<double>(i % 1000));
  EXPECT_EQ(s.count(), 100000u);
  // Quantiles are approximate but must stay inside the data range and
  // roughly ordered.
  const double p50 = s.p50();
  const double p95 = s.p95();
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p95, 999.0);
  EXPECT_LE(p50, p95);
  EXPECT_NEAR(p50, 500.0, 100.0);
}

TEST(RegistryTest, SnapshotSortedAndComplete) {
  obs::MetricsRegistry reg;
  reg.GetCounter("b.counter").Add(2);
  reg.GetCounter("a.counter").Add(1);
  reg.GetGauge("g").Set(3.0);
  reg.GetStat("s").Record(1.5);
  const obs::RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.counter");
  EXPECT_EQ(snap.counters[1].name, "b.counter");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.stats.size(), 1u);
  EXPECT_EQ(snap.stats[0].count, 1u);
}

TEST(ObsToggleTest, DisabledMacrosDoNotRecord) {
  obs::Counter& c =
      obs::DefaultRegistry().GetCounter("obs_test.toggle.counter");
  c.Reset();
  obs::SetEnabled(false);
  CAQP_OBS_COUNTER_INC("obs_test.toggle.counter");
  EXPECT_EQ(c.value(), 0u);
  obs::SetEnabled(true);
  CAQP_OBS_COUNTER_INC("obs_test.toggle.counter");
#if CAQP_OBS_ENABLED
  EXPECT_EQ(c.value(), 1u);
#else
  // With instrumentation compiled out the macro is a no-op either way.
  EXPECT_EQ(c.value(), 0u);
#endif
}

TEST(JsonWriterTest, NestedStructure) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(-3);
  w.Key("b").BeginArray().UInt(1).Double(2.5).Bool(true).Null().EndArray();
  w.Key("c").BeginObject().Key("d").String("x").EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":-3,\"b\":[1,2.5,true,null],\"c\":{\"d\":\"x\"}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(obs::EscapeJson("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::EscapeJson(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(INFINITY);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  obs::JsonWriter w;
  w.BeginArray().Double(0.1).Double(1e300).Double(-2.5).EndArray();
  EXPECT_EQ(w.str(), "[0.1,1e+300,-2.5]");
}

TEST(JsonWriterTest, NegativeInfinityBecomesNull) {
  obs::JsonWriter w;
  w.BeginArray().Double(-INFINITY).EndArray();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriterTest, EscapesEveryControlCharacter) {
  // RFC 8259: all of U+0000..U+001F must be escaped. The short forms are
  // allowed for the common ones; the rest use \u00XX.
  for (int c = 0; c < 0x20; ++c) {
    const std::string raw(1, static_cast<char>(c));
    const std::string escaped = obs::EscapeJson(raw);
    ASSERT_GE(escaped.size(), 2u) << "char " << c << " not escaped";
    EXPECT_EQ(escaped[0], '\\') << "char " << c;
  }
  // \n \r \t use the short escapes; \b \f fall through to \u00XX (both
  // spellings are valid RFC 8259).
  EXPECT_EQ(obs::EscapeJson("\b\f\n\r\t"), "\\u0008\\u000c\\n\\r\\t");
  EXPECT_EQ(obs::EscapeJson(std::string("\x1f", 1)), "\\u001f");
  // DEL (0x7f) and non-ASCII bytes pass through untouched (valid in JSON
  // strings; UTF-8 payloads must not be mangled).
  EXPECT_EQ(obs::EscapeJson("\x7f"), "\x7f");
  EXPECT_EQ(obs::EscapeJson("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, EmptyContainers) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("o").BeginObject().EndObject();
  w.Key("a").BeginArray().EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"o\":{},\"a\":[]}");
}

TEST(JsonWriterTest, DeepNesting) {
  constexpr int kDepth = 64;
  obs::JsonWriter w;
  for (int i = 0; i < kDepth; ++i) w.BeginArray();
  w.Int(1);
  for (int i = 0; i < kDepth; ++i) w.EndArray();
  std::string expected;
  for (int i = 0; i < kDepth; ++i) expected += '[';
  expected += '1';
  for (int i = 0; i < kDepth; ++i) expected += ']';
  EXPECT_EQ(w.str(), expected);
}

TEST(JsonWriterTest, TakeStringMovesDocument) {
  obs::JsonWriter w;
  w.BeginObject().EndObject();
  EXPECT_EQ(w.TakeString(), "{}");
}

// ---------------------------------------------------------------------------
// obs::Histogram (log-linear latency histogram)
// ---------------------------------------------------------------------------
// Suite is named HistogramObsTest: prob/ already owns "HistogramTest".

TEST(HistogramObsTest, BucketLayoutInvariants) {
  // Buckets tile (0, +inf): contiguous, ordered, and the index function maps
  // every bound into the bucket it opens.
  for (size_t i = 0; i + 1 < obs::kHistNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(obs::HistogramBucketUpperBound(i),
                     obs::HistogramBucketLowerBound(i + 1));
    EXPECT_LT(obs::HistogramBucketLowerBound(i),
              obs::HistogramBucketUpperBound(i));
  }
  EXPECT_DOUBLE_EQ(obs::HistogramBucketLowerBound(0), 0.0);
  EXPECT_TRUE(std::isinf(
      obs::HistogramBucketUpperBound(obs::kHistNumBuckets - 1)));
  for (size_t i = 1; i + 1 < obs::kHistNumBuckets; ++i) {
    EXPECT_EQ(obs::HistogramBucketIndex(obs::HistogramBucketLowerBound(i)), i)
        << "bucket " << i;
  }
  // Underflow and overflow.
  EXPECT_EQ(obs::HistogramBucketIndex(0.0), 0u);
  EXPECT_EQ(obs::HistogramBucketIndex(-1.0), 0u);
  EXPECT_EQ(obs::HistogramBucketIndex(std::ldexp(1.0, obs::kHistMinExp) / 2),
            0u);
  EXPECT_EQ(obs::HistogramBucketIndex(std::ldexp(1.0, obs::kHistMaxExp)),
            obs::kHistNumBuckets - 1);
  EXPECT_EQ(obs::HistogramBucketIndex(1e300), obs::kHistNumBuckets - 1);
}

TEST(HistogramObsTest, BucketRelativeWidthBoundsQuantileError) {
  // Each log-linear bucket spans at most 1/kHistSubBuckets of its lower
  // bound — the resolution claim behind the p99 numbers.
  for (size_t i = 1; i + 1 < obs::kHistNumBuckets; ++i) {
    const double lo = obs::HistogramBucketLowerBound(i);
    const double hi = obs::HistogramBucketUpperBound(i);
    EXPECT_LE((hi - lo) / lo, 1.0 / obs::kHistSubBuckets + 1e-12)
        << "bucket " << i;
  }
}

TEST(HistogramObsTest, RecordAndMoments) {
  obs::Histogram h;
  h.Record(0.001);
  h.Record(0.002);
  h.Record(0.004);
  h.Record(std::nan(""));  // ignored
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.007);
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_DOUBLE_EQ(snap.max, 0.004);
  EXPECT_NEAR(snap.mean(), 0.007 / 3, 1e-12);
  uint64_t total = 0;
  for (uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, 3u);
}

TEST(HistogramObsTest, EmptySnapshotIsZero) {
  const obs::HistogramSnapshot snap = obs::Histogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
}

TEST(HistogramObsTest, QuantilesWithinRelativeErrorBar) {
  obs::Histogram h;
  // Uniform 1ms..100ms in 1ms steps; true quantiles are known.
  for (int i = 1; i <= 100; ++i) h.Record(0.001 * i);
  const obs::HistogramSnapshot snap = h.Snapshot();
  const struct {
    double q, truth;
  } cases[] = {{0.50, 0.050}, {0.90, 0.090}, {0.99, 0.099}, {0.999, 0.0999}};
  for (const auto& c : cases) {
    const double est = snap.Quantile(c.q);
    EXPECT_NEAR(est, c.truth, c.truth / obs::kHistSubBuckets)
        << "q=" << c.q;
    EXPECT_GE(est, snap.min);
    EXPECT_LE(est, snap.max);
  }
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  EXPECT_LE(snap.p99(), snap.p999());
}

TEST(HistogramObsTest, MergeMatchesSingleStream) {
  obs::Histogram a, b, reference;
  for (int i = 1; i <= 200; ++i) {
    const double v = 1e-4 * i * i;
    (i % 2 ? a : b).Record(v);
    reference.Record(v);
  }
  obs::HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const obs::HistogramSnapshot expected = reference.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_DOUBLE_EQ(merged.sum, expected.sum);
  EXPECT_DOUBLE_EQ(merged.min, expected.min);
  EXPECT_DOUBLE_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
}

TEST(HistogramObsTest, ResetAndMergeFrom) {
  obs::Histogram h;
  h.Record(0.5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  obs::Histogram src;
  src.Record(0.25);
  src.Record(0.75);
  h.MergeFrom(src.Snapshot());
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 0.75);
}

TEST(ExportTest, RegistryJsonContainsAllKinds) {
  obs::MetricsRegistry reg;
  reg.GetCounter("n.count").Add(7);
  reg.GetGauge("n.gauge").Set(1.5);
  reg.GetStat("n.stat").Record(3.0);
  const std::string json = obs::RegistryToJson(reg);
  // Exports emit canonical snake_case names (counters gain _total)...
  EXPECT_NE(json.find("\"n_count_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"n_gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"n_stat\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // ...and nothing else: no aliases map, no legacy dotted key.
  EXPECT_EQ(json.find("\"aliases\""), std::string::npos);
  EXPECT_EQ(json.find("n.count"), std::string::npos);
  EXPECT_EQ(json.find("n.gauge"), std::string::npos);

  const std::string md = obs::RegistryToMarkdown(reg);
  EXPECT_NE(md.find("n.count"), std::string::npos);
  EXPECT_NE(md.find("| counter | value |"), std::string::npos);
}

TEST(ExportTest, RegistryJsonIncludesHistograms) {
  obs::MetricsRegistry reg;
  reg.GetHistogram("n.hist").Record(0.002);
  const std::string json = obs::RegistryToJson(reg);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"n_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  const std::string md = obs::RegistryToMarkdown(reg);
  EXPECT_NE(md.find("| histogram |"), std::string::npos);
  EXPECT_NE(md.find("n.hist"), std::string::npos);
}

namespace histjson {
// Tiny fixed-shape parser for WriteHistogram output — just enough to prove
// the serialized form reconstructs the snapshot exactly.
double Field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

obs::HistogramSnapshot Parse(const std::string& json) {
  obs::HistogramSnapshot snap;
  snap.count = static_cast<uint64_t>(Field(json, "count"));
  snap.sum = Field(json, "sum");
  snap.min = Field(json, "min");
  snap.max = Field(json, "max");
  const size_t at = json.find("\"buckets\":[");
  EXPECT_NE(at, std::string::npos);
  const char* p = json.c_str() + at + 11;
  while (*p == '[') {
    // Entries are [idx, count, lo, hi]; hi is null for the overflow bucket.
    char* end = nullptr;
    const size_t idx = std::strtoull(p + 1, &end, 10);
    EXPECT_EQ(*end, ',');
    const uint64_t n = std::strtoull(end + 1, &end, 10);
    EXPECT_EQ(*end, ',');
    const double lo = std::strtod(end + 1, &end);
    EXPECT_EQ(*end, ',');
    double hi = std::numeric_limits<double>::infinity();
    if (std::strncmp(end + 1, "null", 4) == 0) {
      end += 1 + 4;
    } else {
      hi = std::strtod(end + 1, &end);
    }
    EXPECT_EQ(*end, ']');
    EXPECT_LT(idx, obs::kHistNumBuckets);
    // The emitted bounds must be the bucket layout's own.
    EXPECT_DOUBLE_EQ(lo, obs::HistogramBucketLowerBound(idx));
    EXPECT_DOUBLE_EQ(hi, obs::HistogramBucketUpperBound(idx));
    snap.buckets[idx] = n;
    p = end + 1;
    if (*p == ',') ++p;
  }
  return snap;
}
}  // namespace histjson

TEST(ExportTest, HistogramJsonRoundTripsExactly) {
  obs::Histogram h;
  for (int i = 1; i <= 500; ++i) h.Record(1e-5 * i * i);
  h.Record(1e-9);  // underflow bucket
  h.Record(1e9);   // overflow bucket
  const obs::HistogramSnapshot original = h.Snapshot();

  obs::JsonWriter w;
  obs::WriteHistogram(w, original);
  const std::string json = w.str();

  // The sparse [index,count,lo,hi] entries plus moments reconstruct the
  // snapshot: identical buckets, hence identical quantiles.
  const obs::HistogramSnapshot parsed = histjson::Parse(json);
  EXPECT_EQ(parsed.count, original.count);
  EXPECT_DOUBLE_EQ(parsed.sum, original.sum);
  EXPECT_DOUBLE_EQ(parsed.min, original.min);
  EXPECT_DOUBLE_EQ(parsed.max, original.max);
  EXPECT_EQ(parsed.buckets, original.buckets);
  EXPECT_DOUBLE_EQ(parsed.p50(), original.p50());
  EXPECT_DOUBLE_EQ(parsed.p999(), original.p999());

  // The derived-quantile fields the serializer also emits agree with the
  // snapshot they were computed from.
  EXPECT_NEAR(histjson::Field(json, "p99"), original.p99(), 1e-12);
  EXPECT_NEAR(histjson::Field(json, "mean"), original.mean(), 1e-12);
}

TEST(ExportTest, EmptyHistogramSerializesWithNoBuckets) {
  obs::JsonWriter w;
  obs::WriteHistogram(w, obs::HistogramSnapshot{});
  EXPECT_NE(w.str().find("\"count\":0"), std::string::npos);
  EXPECT_NE(w.str().find("\"buckets\":[]"), std::string::npos);
}

TEST(ExportTest, PlannerStatsSerializes) {
  obs::PlannerStats st;
  st.Reset("TestPlanner");
  st.memo_hits = 3;
  st.bound_prunes = 5;
  st.expected_cost = 12.5;
  obs::JsonWriter w;
  obs::WritePlannerStats(w, st);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"planner\":\"TestPlanner\""), std::string::npos);
  EXPECT_NE(json.find("\"memo_hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"bound_prunes\":5"), std::string::npos);
  EXPECT_NE(json.find("\"expected_cost\":12.5"), std::string::npos);
}

TEST(AttributeProfileTest, CountsAndRates) {
  AttributeProfile prof(3);
  prof.OnAcquire(0, 1, 2.0);
  prof.OnVerdict(true, 2.0);
  prof.OnAcquire(0, 2, 2.0);
  prof.OnAcquire(2, 0, 5.0);
  prof.OnVerdict(false, 7.0);
  EXPECT_EQ(prof.tuples(), 2u);
  EXPECT_EQ(prof.matches(), 1u);
  EXPECT_EQ(prof.count(0), 2u);
  EXPECT_EQ(prof.count(1), 0u);
  EXPECT_EQ(prof.count(2), 1u);
  EXPECT_DOUBLE_EQ(prof.AcquisitionRate(0), 1.0);
  EXPECT_DOUBLE_EQ(prof.AcquisitionRate(2), 0.5);
  EXPECT_DOUBLE_EQ(prof.MeanCost(), 4.5);
  EXPECT_DOUBLE_EQ(prof.cost(2), 5.0);
}

TEST(PlannerStatsTest, GreedyPlannerFillsStats) {
  const Schema schema = SmallSchema();
  const Dataset data = CorrelatedDataset(schema, 600, 11);
  DatasetEstimator est(data);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  GreedySeqSolver solver;
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &solver;
  opts.max_splits = 3;
  GreedyPlanner planner(est, cm, opts);
  const Query q = Query::Conjunction({Predicate(2, 0, 1), Predicate(3, 0, 2)});
  (void)planner.BuildPlan(q);
  const obs::PlannerStats& st = planner.planner_stats();
  EXPECT_EQ(st.planner, planner.Name());
  EXPECT_GE(st.split_searches, 1u);
  EXPECT_GT(st.seq_solves, 0u);
  EXPECT_GT(st.expected_cost, 0.0);
  // Every split adopted passed through the queue and contributes its
  // benefit to the running totals.
  if (st.splits_taken > 0) {
    EXPECT_GE(st.queue_high_water, 1u);
    EXPECT_GT(st.benefit_first, 0.0);
    EXPECT_GT(st.benefit_total, 0.0);
  }
}

TEST(PlannerStatsTest, ExhaustivePlannerFillsMemoCounts) {
  const Schema schema = SmallSchema();
  const Dataset data = CorrelatedDataset(schema, 400, 13);
  DatasetEstimator est(data);
  PerAttributeCostModel cm(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExhaustivePlanner::Options opts;
  opts.split_points = &splits;
  ExhaustivePlanner planner(est, cm, opts);
  const Query q = Query::Conjunction({Predicate(2, 0, 1), Predicate(3, 0, 2)});
  (void)planner.BuildPlan(q);
  const obs::PlannerStats& st = planner.planner_stats();
  EXPECT_EQ(st.planner, planner.Name());
  EXPECT_GT(st.memo_misses, 0u);
  EXPECT_GT(st.candidates_tried, 0u);
  EXPECT_GT(st.expected_cost, 0.0);
  // Memoization and pruning must actually fire on a correlated workload.
  EXPECT_GT(st.memo_hits + st.bound_prunes, 0u);
}

TEST(PlannerStatsTest, NaivePlannerResetsStats) {
  const Schema schema = SmallSchema();
  const Dataset data = CorrelatedDataset(schema, 200, 17);
  DatasetEstimator est(data);
  PerAttributeCostModel cm(schema);
  NaivePlanner planner(est, cm);
  const Query q = Query::Conjunction({Predicate(2, 0, 1)});
  (void)planner.BuildPlan(q);
  EXPECT_EQ(planner.planner_stats().planner, planner.Name());
  EXPECT_EQ(planner.planner_stats().memo_hits, 0u);
}

}  // namespace
}  // namespace caqp
