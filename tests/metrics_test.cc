// Statistics used by the evaluation: GainStats variance/percentiles, and
// the degenerate-input behavior of SummarizeGains / CumulativeGainCurve.

#include <gtest/gtest.h>

#include <vector>

#include "exec/metrics.h"

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
