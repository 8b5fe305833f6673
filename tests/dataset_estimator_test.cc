// DatasetEstimator tests: every statistic must agree exactly with brute-
// force counting over the dataset (the estimator is the paper's Section 5
// machinery, so its correctness underpins every planner).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>

#include "data/garden_gen.h"
#include "data/synthetic_gen.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::BruteForceRows;
using testing_util::CorrelatedDataset;
using testing_util::RandomRanges;
using testing_util::RowWalkEstimator;
using testing_util::SmallSchema;

TEST(DatasetEstimatorTest, RootMarginalMatchesColumnCounts) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 500, 1);
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  for (size_t a = 0; a < ds.num_attributes(); ++a) {
    const Histogram h = est.Marginal(root, static_cast<AttrId>(a));
    EXPECT_DOUBLE_EQ(h.total(), 500.0);
    std::vector<double> counts(ds.schema().domain_size(static_cast<AttrId>(a)),
                               0);
    for (Value v : ds.column(static_cast<AttrId>(a))) counts[v] += 1;
    for (Value v = 0; v < counts.size(); ++v) {
      EXPECT_DOUBLE_EQ(h.Count(v), counts[v]);
    }
  }
}

TEST(DatasetEstimatorTest, ConditionalMarginalMatchesBruteForce) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 800, 2);
  DatasetEstimator est(ds);
  Rng rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    const std::vector<RowId> expected = BruteForceRows(ds, ranges);
    for (size_t a = 0; a < ds.num_attributes(); ++a) {
      const Histogram h = est.Marginal(ranges, static_cast<AttrId>(a));
      EXPECT_DOUBLE_EQ(h.total(), static_cast<double>(expected.size()));
      std::vector<double> counts(
          ds.schema().domain_size(static_cast<AttrId>(a)), 0);
      for (RowId r : expected) counts[ds.at(r, static_cast<AttrId>(a))] += 1;
      for (Value v = 0; v < counts.size(); ++v) {
        ASSERT_DOUBLE_EQ(h.Count(v), counts[v]);
      }
    }
  }
}

TEST(DatasetEstimatorTest, ReachProbabilityMatchesBruteForce) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 600, 4);
  DatasetEstimator est(ds);
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    const double expected =
        static_cast<double>(BruteForceRows(ds, ranges).size()) / 600.0;
    EXPECT_DOUBLE_EQ(est.ReachProbability(ranges), expected);
  }
}

TEST(DatasetEstimatorTest, PredicateMasksMatchBruteForce) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 700, 6);
  DatasetEstimator est(ds);
  Rng rng(7);
  std::vector<Predicate> preds = {Predicate(2, 1, 2), Predicate(3, 0, 2),
                                  Predicate(1, 2, 4, /*neg=*/true)};
  for (int iter = 0; iter < 30; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    const MaskDistribution dist = est.PredicateMasks(ranges, preds);
    const std::vector<RowId> rows = BruteForceRows(ds, ranges);
    EXPECT_DOUBLE_EQ(dist.total(), static_cast<double>(rows.size()));
    // Brute-force mask counts.
    std::vector<double> expected(8, 0);
    for (RowId r : rows) {
      expected[PredicateMask(preds, ds.GetTuple(r))] += 1;
    }
    for (uint64_t mask = 0; mask < 8; ++mask) {
      double got = 0;
      for (const auto& [m, w] : dist.entries()) {
        if (m == mask) got += w;
      }
      ASSERT_DOUBLE_EQ(got, expected[mask]) << "mask " << mask;
    }
  }
}

TEST(DatasetEstimatorTest, PerValueMasksPartitionParent) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 900, 8);
  DatasetEstimator est(ds);
  Rng rng(9);
  std::vector<Predicate> preds = {Predicate(2, 1, 2), Predicate(3, 1, 3)};
  for (int iter = 0; iter < 30; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    for (size_t a = 0; a < ds.num_attributes(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      const auto per_value = est.PerValuePredicateMasks(ranges, attr, preds);
      ASSERT_EQ(per_value.size(), ranges[attr].Width());
      const MaskDistribution parent = est.PredicateMasks(ranges, preds);
      double total = 0;
      for (const auto& d : per_value) total += d.total();
      EXPECT_DOUBLE_EQ(total, parent.total());
      // Summing per-value distributions over the whole range recovers the
      // parent's subset masses exactly.
      for (uint64_t mask = 0; mask < 4; ++mask) {
        double sum = 0;
        for (const auto& d : per_value) sum += d.MassAllTrue(mask);
        EXPECT_NEAR(sum, parent.MassAllTrue(mask), 1e-9);
      }
      // Check per-value contents directly against brute force.
      const std::vector<RowId> rows = BruteForceRows(ds, ranges);
      for (Value v = ranges[attr].lo; v <= ranges[attr].hi; ++v) {
        double expected = 0;
        for (RowId r : rows) {
          if (ds.at(r, attr) == v) expected += 1;
        }
        EXPECT_DOUBLE_EQ(per_value[v - ranges[attr].lo].total(), expected);
      }
    }
  }
}

TEST(DatasetEstimatorTest, ScopeStackSpeedsEqualAnswers) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 500, 10);
  DatasetEstimator est(ds);
  const Schema& schema = ds.schema();
  RangeVec outer = schema.FullRanges();
  outer[0] = ValueRange{1, 2};
  RangeVec inner = outer;
  inner[2] = ValueRange{0, 1};

  // Without scopes.
  const double p_no_scope = est.ReachProbability(inner);

  // Scope hints are ignored: answers under them equal answers without.
  est.PushScope(outer);
  est.PushScope(inner);
  const double p_scoped = est.ReachProbability(inner);
  est.PopScope();
  const double p_outer = est.ReachProbability(outer);
  est.PopScope();

  EXPECT_DOUBLE_EQ(p_no_scope, p_scoped);
  EXPECT_DOUBLE_EQ(
      p_outer, static_cast<double>(BruteForceRows(ds, outer).size()) / 500.0);
}

TEST(DatasetEstimatorTest, OffStackQueriesResolveFromNearestScope) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 400, 11);
  DatasetEstimator est(ds);
  RangeVec scope = ds.schema().FullRanges();
  scope[1] = ValueRange{1, 4};
  est.PushScope(scope);  // ignored, like every scope hint
  // Query a sibling refinement of the hinted scope.
  RangeVec probe = scope;
  probe[3] = ValueRange{2, 3};
  EXPECT_DOUBLE_EQ(
      est.ReachProbability(probe),
      static_cast<double>(BruteForceRows(ds, probe).size()) / 400.0);
  est.PopScope();
}

TEST(DatasetEstimatorTest, RangeProbabilityConvenience) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 300, 12);
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  double total = 0;
  for (Value v = 0; v < 4; ++v) {
    total += est.RangeProbability(root, 0, ValueRange{v, v});
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DatasetEstimatorTest, PredicateProbabilityHandlesNegation) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 300, 13);
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  const Predicate p(1, 2, 4);
  const Predicate np(1, 2, 4, /*neg=*/true);
  EXPECT_NEAR(est.PredicateProbability(root, p) +
                  est.PredicateProbability(root, np),
              1.0, 1e-12);
}

TEST(DatasetEstimatorTest, EmptyDatasetIsSafe) {
  Dataset ds(SmallSchema());
  DatasetEstimator est(ds);
  const RangeVec root = ds.schema().FullRanges();
  EXPECT_DOUBLE_EQ(est.ReachProbability(root), 0.0);
  EXPECT_DOUBLE_EQ(est.Marginal(root, 0).total(), 0.0);
  EXPECT_TRUE(est.PredicateMasks(root, {Predicate(0, 0, 1)}).empty());
}

TEST(DatasetEstimatorTest, RowsMatchingExactAndSubset) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 200, 14);
  DatasetEstimator est(ds);
  Rng rng(15);
  for (int iter = 0; iter < 20; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    EXPECT_EQ(est.RowsMatching(ranges), BruteForceRows(ds, ranges));
  }
}

// ---------------------------------------------------------------------------
// Differential: the bitmap count index vs the row walk, exactly

/// `k` random predicates over random attributes (repeats allowed): a third
/// negated, a fifth spanning their whole domain.
std::vector<Predicate> RandomPredicates(const Schema& schema, size_t k,
                                        Rng& rng) {
  std::vector<Predicate> preds;
  for (size_t j = 0; j < k; ++j) {
    const AttrId attr = static_cast<AttrId>(
        rng.UniformInt(0, static_cast<int64_t>(schema.num_attributes()) - 1));
    const uint32_t domain = schema.domain_size(attr);
    Value lo = 0;
    Value hi = static_cast<Value>(domain - 1);
    if (!rng.Bernoulli(0.2)) {
      lo = static_cast<Value>(rng.UniformInt(0, domain - 1));
      hi = static_cast<Value>(rng.UniformInt(lo, domain - 1));
    }
    preds.emplace_back(attr, lo, hi, rng.Bernoulli(1.0 / 3.0));
  }
  return preds;
}

void ExpectSameDistribution(const MaskDistribution& got,
                            const MaskDistribution& want) {
  // Exact: same masks in the same (ascending) order, same weights, same
  // total, bit for bit.
  EXPECT_EQ(got.entries(), want.entries());
  EXPECT_EQ(got.total(), want.total());
}

/// Every statistic at `ranges`, compared exactly against the row walk.
void ExpectMatchesRowWalk(DatasetEstimator& est, RowWalkEstimator& ref,
                          const RangeVec& ranges,
                          const std::vector<Predicate>& preds) {
  EXPECT_EQ(est.ReachProbability(ranges), ref.ReachProbability(ranges));
  ExpectSameDistribution(est.PredicateMasks(ranges, preds),
                         ref.PredicateMasks(ranges, preds));
  const Schema& schema = est.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    const Histogram got = est.Marginal(ranges, attr);
    const Histogram want = ref.Marginal(ranges, attr);
    EXPECT_EQ(got.total(), want.total());
    for (Value v = 0; v < schema.domain_size(attr); ++v) {
      ASSERT_EQ(got.Count(v), want.Count(v)) << "attr " << a << " v " << v;
    }
    const std::vector<MaskDistribution> got_pv =
        est.PerValuePredicateMasks(ranges, attr, preds);
    const std::vector<MaskDistribution> want_pv =
        ref.PerValuePredicateMasks(ranges, attr, preds);
    ASSERT_EQ(got_pv.size(), want_pv.size());
    for (size_t i = 0; i < got_pv.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "attr " << a << " value index " << i);
      ExpectSameDistribution(got_pv[i], want_pv[i]);
    }
  }
}

/// Predicate counts covering both counting paths: the dense table (k <= 16
/// for PredicateMasks, while width x 2^k <= 2^16 per value) and the sorted
/// path beyond it.
constexpr size_t kPredicateCounts[] = {1, 8, 9, 16, 17, 24};

void ExpectDifferentialOn(const Dataset& ds, uint64_t seed, int iters) {
  DatasetEstimator est(ds);
  RowWalkEstimator ref(ds);
  Rng rng(seed);
  for (const size_t k : kPredicateCounts) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    for (int iter = 0; iter < iters; ++iter) {
      const RangeVec ranges = RandomRanges(ds.schema(), rng);
      ExpectMatchesRowWalk(est, ref, ranges,
                           RandomPredicates(ds.schema(), k, rng));
    }
    ExpectMatchesRowWalk(est, ref, ds.schema().FullRanges(),
                         RandomPredicates(ds.schema(), k, rng));
  }
}

TEST(DatasetEstimatorDifferentialTest, SmallSchemaAcrossWordTails) {
  // 0 rows, a single row, and row counts straddling a 64-bit word.
  for (const size_t rows : {0, 1, 63, 64, 65}) {
    SCOPED_TRACE(testing::Message() << "rows=" << rows);
    ExpectDifferentialOn(CorrelatedDataset(SmallSchema(), rows, 40 + rows), 7,
                         4);
  }
}

TEST(DatasetEstimatorDifferentialTest, SmallSchemaTwelveThousandRows) {
  ExpectDifferentialOn(CorrelatedDataset(SmallSchema(), 12000, 41), 8, 3);
}

TEST(DatasetEstimatorDifferentialTest, SyntheticData) {
  SyntheticDataOptions sopts;
  sopts.n = 10;
  sopts.gamma = 4;
  sopts.tuples = 3001;
  ExpectDifferentialOn(GenerateSyntheticData(sopts), 9, 3);
}

TEST(DatasetEstimatorDifferentialTest, GardenData) {
  GardenDataOptions gopts;
  gopts.num_motes = 2;
  gopts.epochs = 2000;
  ExpectDifferentialOn(GenerateGardenData(gopts), 10, 2);
}

TEST(DatasetEstimatorDifferentialTest, RowsMatchingAtWordTails) {
  for (const size_t rows : {0, 1, 63, 64, 65, 12000}) {
    const Dataset ds = CorrelatedDataset(SmallSchema(), rows, 50 + rows);
    const DatasetEstimator est(ds);
    Rng rng(rows);
    for (int iter = 0; iter < 10; ++iter) {
      const RangeVec ranges = RandomRanges(ds.schema(), rng);
      EXPECT_EQ(est.RowsMatching(ranges), BruteForceRows(ds, ranges));
    }
    EXPECT_EQ(est.RowsMatching(ds.schema().FullRanges()).size(), rows);
  }
}

// ---------------------------------------------------------------------------
// Multiplicities: the index counts distinct tuples, each weighted by the
// number of rows it stands for. Every count must stay exact across the
// bit-sliced multiplicity planes and the tuple index's word tails.

/// `n` distinct tuples of the schema, drawn at random without replacement.
std::vector<Tuple> DistinctTuples(const Schema& schema, size_t n,
                                  uint64_t seed) {
  std::vector<Tuple> all;
  Tuple t(schema.num_attributes(), 0);
  for (bool done = false; !done;) {
    all.push_back(t);
    done = true;
    for (size_t a = 0; a < t.size() && done; ++a) {
      done = ++t[a] == schema.domain_size(static_cast<AttrId>(a));
      if (done) t[a] = 0;
    }
  }
  Rng rng(seed);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
  }
  all.resize(std::min(n, all.size()));
  return all;
}

/// copies[i] rows of tuples[i], in a seeded random order.
Dataset WithCopies(const Schema& schema, const std::vector<Tuple>& tuples,
                   const std::vector<size_t>& copies, uint64_t seed) {
  std::vector<size_t> order;
  for (size_t i = 0; i < tuples.size(); ++i) {
    order.insert(order.end(), copies[i], i);
  }
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  Dataset ds(schema);
  for (const size_t i : order) ds.Append(tuples[i]);
  return ds;
}

TEST(DatasetEstimatorMultiplicityTest, OneTupleRepeatedAcrossPlaneBoundaries) {
  // 2^b - 1 copies fill b planes, 2^b and 2^b + 1 open plane b; b = 16 and
  // 17 take counts past 16 bits. The other 69 tuples appear once each.
  const Schema schema = SmallSchema();
  const std::vector<Tuple> tuples = DistinctTuples(schema, 70, 70);
  for (size_t b = 1; b <= 17; ++b) {
    for (const size_t copies :
         {(size_t{1} << b) - 1, size_t{1} << b, (size_t{1} << b) + 1}) {
      SCOPED_TRACE(testing::Message() << "copies=" << copies);
      std::vector<size_t> counts(tuples.size(), 1);
      counts[37] = copies;
      ExpectDifferentialOn(WithCopies(schema, tuples, counts, copies), b, 0);
    }
  }
}

TEST(DatasetEstimatorMultiplicityTest, RepeatedTuplesAtWordTails) {
  // 63, 64 and 65 distinct tuples end the tuple index inside, at, and just
  // past a 64-bit word; each tuple is repeated 1 to 9 times.
  const Schema schema = SmallSchema();
  for (const size_t n : {63, 64, 65}) {
    SCOPED_TRACE(testing::Message() << "tuples=" << n);
    const std::vector<Tuple> tuples = DistinctTuples(schema, n, n);
    std::vector<size_t> counts;
    for (size_t i = 0; i < n; ++i) counts.push_back(1 + (i * 7) % 9);
    ExpectDifferentialOn(WithCopies(schema, tuples, counts, n), n, 3);
  }
}

TEST(DatasetEstimatorMultiplicityTest, OneHeavyTupleBesideDistinctRows) {
  // 2^14 copies of one tuple among 300 distinct ones: the heavy tuple's word
  // carries 15 planes, every other word one.
  const Schema schema = SmallSchema();
  const std::vector<Tuple> tuples = DistinctTuples(schema, 301, 14);
  std::vector<size_t> counts(tuples.size(), 1);
  counts[150] = size_t{1} << 14;
  ExpectDifferentialOn(WithCopies(schema, tuples, counts, 14), 14, 3);
}

TEST(DatasetEstimatorMultiplicityTest, AllDistinctRowsUseOnePlane) {
  // Every tuple of the schema (4 x 6 x 4 x 5 = 480) exactly once.
  const Schema schema = SmallSchema();
  const std::vector<Tuple> tuples = DistinctTuples(schema, 480, 480);
  ASSERT_EQ(tuples.size(), 480u);
  ExpectDifferentialOn(
      WithCopies(schema, tuples, std::vector<size_t>(480, 1), 480), 480, 3);
}

TEST(DatasetEstimatorMultiplicityTest, RowsMatchingOnDuplicateHeavyData) {
  // Row ids, not tuple ids, in ascending order, every copy included.
  const Schema schema = SmallSchema();
  const std::vector<Tuple> tuples = DistinctTuples(schema, 40, 40);
  std::vector<size_t> counts;
  for (size_t i = 0; i < tuples.size(); ++i) counts.push_back(1 + i % 50);
  counts[3] = 3000;
  const Dataset ds = WithCopies(schema, tuples, counts, 41);
  const DatasetEstimator est(ds);
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const RangeVec ranges = RandomRanges(ds.schema(), rng);
    EXPECT_EQ(est.RowsMatching(ranges), BruteForceRows(ds, ranges));
  }
  EXPECT_EQ(est.RowsMatching(ds.schema().FullRanges()).size(), ds.num_rows());
}

// ---------------------------------------------------------------------------
// MaskDistribution::Aggregate vs hash-map aggregation

/// Reference aggregation: sum weights per mask through an unordered_map (in
/// insertion order per mask), then sort by mask. Aggregate must match it bit
/// for bit.
std::vector<std::pair<uint64_t, double>> HashAggregated(
    const std::vector<std::pair<uint64_t, double>>& adds) {
  std::unordered_map<uint64_t, double> agg;
  for (const auto& [mask, w] : adds) agg[mask] += w;
  std::vector<std::pair<uint64_t, double>> out(agg.begin(), agg.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DatasetEstimatorAggregateTest, MatchesHashMapAggregationBitwise) {
  Rng rng(2005);
  for (int iter = 0; iter < 50; ++iter) {
    // Unsorted, heavily duplicated masks with non-integer weights whose sums
    // depend on the order they are added in.
    std::vector<std::pair<uint64_t, double>> adds;
    const int n = static_cast<int>(rng.UniformInt(0, 200));
    for (int i = 0; i < n; ++i) {
      const uint64_t mask =
          static_cast<uint64_t>(rng.UniformInt(0, 12)) << (iter % 50);
      adds.emplace_back(mask, rng.Uniform() * 1e3 + 1e-7 * i);
    }
    MaskDistribution dist;
    double total = 0.0;
    for (const auto& [mask, w] : adds) {
      dist.Add(mask, w);
      total += w;
    }
    dist.Aggregate();
    EXPECT_EQ(dist.entries(), HashAggregated(adds));
    EXPECT_EQ(dist.total(), total);
    // Aggregating an aggregated (strictly ascending) distribution is a no-op.
    const auto once = dist.entries();
    dist.Aggregate();
    EXPECT_EQ(dist.entries(), once);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one shared instance

TEST(DatasetEstimatorConcurrencyTest, SharedInstanceAnswersLikeSingleThreaded) {
  const Dataset ds = CorrelatedDataset(SmallSchema(), 3000, 60);
  DatasetEstimator shared(ds);
  Rng rng(61);
  struct Probe {
    RangeVec ranges;
    std::vector<Predicate> preds;
  };
  std::vector<Probe> probes;
  for (int i = 0; i < 24; ++i) {
    const size_t k = kPredicateCounts[i % std::size(kPredicateCounts)];
    probes.push_back({RandomRanges(ds.schema(), rng),
                      RandomPredicates(ds.schema(), k, rng)});
  }
  // Single-threaded answers first, from the same instance.
  struct Answer {
    double reach;
    MaskDistribution masks;
    std::vector<MaskDistribution> per_value;
    double marginal_total;
  };
  const auto answer = [&](const Probe& p) {
    return Answer{shared.ReachProbability(p.ranges),
                  shared.PredicateMasks(p.ranges, p.preds),
                  shared.PerValuePredicateMasks(p.ranges, 1, p.preds),
                  shared.Marginal(p.ranges, 3).total()};
  };
  std::vector<Answer> want;
  for (const Probe& p : probes) want.push_back(answer(p));

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (size_t i = 0; i < probes.size(); ++i) {
          const size_t j = (i + t * 7) % probes.size();
          const Answer got = answer(probes[j]);
          bool same = got.reach == want[j].reach &&
                      got.marginal_total == want[j].marginal_total &&
                      got.masks.entries() == want[j].masks.entries() &&
                      got.per_value.size() == want[j].per_value.size();
          for (size_t v = 0; same && v < got.per_value.size(); ++v) {
            same = got.per_value[v].entries() == want[j].per_value[v].entries();
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace caqp
