// Tests for the common runtime: Status/Result, byte serialization, RNG.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"

namespace caqp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, ServingErrorFactories) {
  const Status u = Status::Unavailable("shedding load");
  EXPECT_EQ(u.code(), StatusCode::kUnavailable);
  EXPECT_EQ(u.ToString(), "Unavailable: shedding load");
  const Status d = Status::DeadlineExceeded("past deadline");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: past deadline");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(BytesTest, VarintRoundtripSmall) {
  ByteWriter w;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull}) {
    w.PutVarint(v);
  }
  ByteReader r(w.bytes());
  for (uint64_t expected :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull}) {
    uint64_t v = 0;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintSmallValuesAreOneByte) {
  ByteWriter w;
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 1u);
  w.PutVarint(128);
  EXPECT_EQ(w.size(), 3u);  // +2 bytes
}

TEST(BytesTest, DoubleRoundtrip) {
  ByteWriter w;
  const double values[] = {0.0, -0.0, 1.5, -3.25e17, 1e-300};
  for (double v : values) w.PutDouble(v);
  ByteReader r(w.bytes());
  for (double expected : values) {
    double v = 0;
    ASSERT_TRUE(r.GetDouble(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(BytesTest, TruncatedReadsFail) {
  ByteWriter w;
  w.PutDouble(3.14);
  std::vector<uint8_t> cut(w.bytes().begin(), w.bytes().begin() + 4);
  ByteReader r(cut);
  double v;
  EXPECT_EQ(r.GetDouble(&v).code(), StatusCode::kDataLoss);
}

TEST(BytesTest, TruncatedVarintFails) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // continuation never ends
  ByteReader r(bytes);
  uint64_t v;
  EXPECT_EQ(r.GetVarint(&v).code(), StatusCode::kDataLoss);
}

TEST(BytesTest, OverlongVarintFails) {
  std::vector<uint8_t> bytes(11, 0x80);
  bytes.push_back(0x01);
  ByteReader r(bytes);
  uint64_t v;
  EXPECT_EQ(r.GetVarint(&v).code(), StatusCode::kDataLoss);
}

class VarintPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintPropertyTest, RoundtripsUnderRandomFuzz) {
  Rng rng(GetParam());
  ByteWriter w;
  std::vector<uint64_t> values;
  for (int i = 0; i < 200; ++i) {
    // Bias toward boundary-sized magnitudes.
    const int bits = static_cast<int>(rng.UniformInt(0, 63));
    uint64_t v = rng.engine()() & ((bits == 63) ? ~0ull
                                                : ((1ull << (bits + 1)) - 1));
    values.push_back(v);
    w.PutVarint(v);
  }
  ByteReader r(w.bytes());
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    ASSERT_EQ(v, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0, ss = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(2.0, 3.0);
    sum += x;
    ss += x * x;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(RngTest, ForkGivesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // The fork and the parent should not produce identical sequences.
  bool differs = false;
  Rng b(42);
  Rng child_b = b.Fork();
  for (int i = 0; i < 10; ++i) {
    // Deterministic: forks of equal parents match each other...
    EXPECT_EQ(child.UniformInt(0, 1 << 30), child_b.UniformInt(0, 1 << 30));
  }
  Rng c(42);
  Rng child_c = c.Fork();
  for (int i = 0; i < 10; ++i) {
    if (child_c.UniformInt(0, 1 << 30) != c.UniformInt(0, 1 << 30)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace caqp
