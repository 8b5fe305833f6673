// Tests for Histogram and MaskDistribution, the planners' two statistics.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "prob/histogram.h"
#include "prob/subproblem.h"

namespace caqp {
namespace {

TEST(HistogramTest, CountsAndProbabilities) {
  Histogram h(4);
  h.Add(0);
  h.Add(1, 2.0);
  h.Add(3);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.Count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.RangeCount({0, 1}), 3.0);
  EXPECT_DOUBLE_EQ(h.Probability({0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(h.ValueProbability(3), 0.25);
}

TEST(HistogramTest, EmptyHistogramProbabilitiesAreZero) {
  Histogram h(4);
  EXPECT_DOUBLE_EQ(h.Probability({0, 3}), 0.0);
  EXPECT_DOUBLE_EQ(h.ValueProbability(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.StdDev(), 0.0);
}

TEST(HistogramTest, MeanAndStdDev) {
  Histogram h(10);
  h.Add(2);
  h.Add(4);
  h.Add(6);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
  EXPECT_NEAR(h.StdDev(), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(HistogramTest, RangeCountsPartitionTotal) {
  Rng rng(17);
  Histogram h(16);
  for (int i = 0; i < 500; ++i) {
    h.Add(static_cast<Value>(rng.UniformInt(0, 15)), rng.Uniform(0.1, 2.0));
  }
  for (Value split = 1; split < 16; ++split) {
    const double lo = h.RangeCount({0, static_cast<Value>(split - 1)});
    const double hi = h.RangeCount({split, 15});
    EXPECT_NEAR(lo + hi, h.total(), 1e-9);
  }
}

TEST(MaskDistributionTest, AggregateCollapsesDuplicates) {
  MaskDistribution d;
  d.Add(0b01, 1.0);
  d.Add(0b01, 2.0);
  d.Add(0b10, 1.0);
  d.Aggregate();
  EXPECT_EQ(d.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(d.total(), 4.0);
  EXPECT_DOUBLE_EQ(d.MassAllTrue(0b01), 3.0);
}

TEST(MaskDistributionTest, MassAllTrue) {
  MaskDistribution d;
  d.Add(0b11, 2.0);
  d.Add(0b01, 1.0);
  d.Add(0b00, 5.0);
  d.Aggregate();
  EXPECT_DOUBLE_EQ(d.MassAllTrue(0), 8.0);
  EXPECT_DOUBLE_EQ(d.MassAllTrue(0b01), 3.0);
  EXPECT_DOUBLE_EQ(d.MassAllTrue(0b10), 2.0);
  EXPECT_DOUBLE_EQ(d.MassAllTrue(0b11), 2.0);
}

TEST(MaskDistributionTest, ConditionTrue) {
  MaskDistribution d;
  d.Add(0b11, 2.0);
  d.Add(0b01, 1.0);
  d.Add(0b10, 3.0);
  d.Aggregate();
  MaskDistribution c = d.ConditionTrue(0);
  EXPECT_DOUBLE_EQ(c.total(), 3.0);
  EXPECT_DOUBLE_EQ(c.MassAllTrue(0b10), 2.0);
}

TEST(PredicateMaskTest, BuildsBitmaskFromTuple) {
  std::vector<Predicate> preds = {Predicate(0, 1, 2), Predicate(1, 0, 0),
                                  Predicate(2, 3, 5, /*neg=*/true)};
  EXPECT_EQ(PredicateMask(preds, {1, 0, 6}), 0b111u);
  EXPECT_EQ(PredicateMask(preds, {0, 0, 4}), 0b010u);
  EXPECT_EQ(PredicateMask(preds, {2, 1, 3}), 0b001u);
}

}  // namespace
}  // namespace caqp
