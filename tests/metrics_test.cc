// Statistics the benches report (bench/metrics.h): GainStats summaries,
// variance and percentiles, the cumulative gain curve and its degenerate
// inputs, and the table-row formatter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics.h"

namespace caqp {
namespace {

TEST(SortedPercentileTest, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(SortedPercentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SortedPercentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(SortedPercentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(SortedPercentile(xs, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(SortedPercentile({7.0}, 95.0), 7.0);
}

TEST(GainStatsTest, VarianceAndPercentiles) {
  const GainStats s = SummarizeGains({2.0, 1.0, 4.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.variance, 1.25);
  EXPECT_DOUBLE_EQ(s.p25, 1.75);
  EXPECT_DOUBLE_EQ(s.p75, 3.25);
  EXPECT_DOUBLE_EQ(s.p95, 3.85);
}

TEST(GainStatsTest, SingleElement) {
  const GainStats s = SummarizeGains({2.5});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.5);
  EXPECT_DOUBLE_EQ(s.p95, 2.5);
}

TEST(GainStatsTest, EmptyIsAllZero) {
  const GainStats s = SummarizeGains({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.p25, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
}

TEST(CumulativeGainCurveTest, EmptyInputGivesEmptyCurve) {
  EXPECT_TRUE(CumulativeGainCurve({}, 10).empty());
  EXPECT_TRUE(CumulativeGainCurve({1.0, 2.0}, 1).empty());
}

TEST(MetricsTest, GainSummary) {
  const GainStats s = SummarizeGains({2.0, 1.0, 4.0, 3.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(MetricsTest, EmptyGains) {
  const GainStats s = SummarizeGains({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(MetricsTest, CumulativeGainCurveMonotone) {
  auto curve = CumulativeGainCurve({1.0, 1.5, 2.0, 2.5, 3.0}, 10);
  ASSERT_EQ(curve.size(), 10u);
  EXPECT_DOUBLE_EQ(curve.front().second, 1.0);  // all gains >= min
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].second, curve[i - 1].second + 1e-12);
  }
  EXPECT_GT(curve.back().second, 0.0);  // at least one experiment at max
}

TEST(MetricsTest, FormatRowPads) {
  const std::string row = FormatRow({"a", "bb"}, {3, 4});
  EXPECT_EQ(row, "| a   | bb   |");
}

TEST(CumulativeGainCurveTest, AllEqualGainsCollapseToOnePoint) {
  const auto curve = CumulativeGainCurve({2.0, 2.0, 2.0}, 10);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].first, 2.0);
  EXPECT_DOUBLE_EQ(curve[0].second, 1.0);
}

TEST(CumulativeGainCurveTest, SingleElementCollapsesToOnePoint) {
  const auto curve = CumulativeGainCurve({1.5}, 5);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].first, 1.5);
  EXPECT_DOUBLE_EQ(curve[0].second, 1.0);
}

}  // namespace
}  // namespace caqp
