// Section 5 microbenchmarks: the probability-computation machinery.
//
//  * DatasetEstimator's bitmap count index: PredicateMasks and
//    PerValuePredicateMasks for k = 4, 10 and 20 predicates, at the root and
//    at a narrowed scope. The index holds the data's distinct tuples (47,915
//    of the 100,000 rows here), and each scope tuple adds its multiplicity
//    to its mask's count: into a dense table indexed by mask for k = 4 and
//    10, into a hash table whose entries are then sorted for k = 20.
//  * One-pass per-value predicate joints (the incremental Eq. (7) sweep)
//    vs re-counting each candidate split from scratch.
//  * Chow-Liu evidence inference vs direct counting for one conditional.

#include <benchmark/benchmark.h>

#include "prob/chow_liu.h"
#include "prob/dataset_estimator.h"
#include "test_support.h"

using namespace caqp;

namespace {

const Dataset& SharedData() {
  static const Dataset ds = benchsupport::MakeCorrelated(8, 16, 100000, 7);
  return ds;
}

RangeVec NarrowedRanges(const Schema& schema) {
  RangeVec ranges = schema.FullRanges();
  ranges[0] = ValueRange{4, 11};
  ranges[2] = ValueRange{2, 13};
  return ranges;
}

/// k predicates cycling over the attributes, each a different band of its
/// attribute's domain, every third one negated.
std::vector<Predicate> BandPredicates(const Schema& schema, size_t k) {
  std::vector<Predicate> preds;
  for (size_t j = 0; j < k; ++j) {
    const AttrId attr = static_cast<AttrId>(j % schema.num_attributes());
    const uint32_t domain = schema.domain_size(attr);
    const Value lo = static_cast<Value>((3 * j) % (domain / 2));
    const Value hi = static_cast<Value>(lo + domain / 2 - 1);
    preds.emplace_back(attr, lo, hi, /*neg=*/j % 3 == 2);
  }
  return preds;
}

/// Args: {k, narrowed}. Narrowed runs at NarrowedRanges' scope, else root.
RangeVec ScopeFor(const Schema& schema, int64_t narrowed) {
  return narrowed != 0 ? NarrowedRanges(schema) : schema.FullRanges();
}

void BM_PredicateMasks(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = ScopeFor(ds.schema(), state.range(1));
  const std::vector<Predicate> preds =
      BandPredicates(ds.schema(), static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.PredicateMasks(ranges, preds));
  }
}
BENCHMARK(BM_PredicateMasks)
    ->ArgsProduct({{4, 10, 20}, {0, 1}})
    ->ArgNames({"k", "narrowed"})
    ->Unit(benchmark::kMicrosecond);

void BM_PerValuePredicateMasks(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = ScopeFor(ds.schema(), state.range(1));
  const std::vector<Predicate> preds =
      BandPredicates(ds.schema(), static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    // The split sweep on attribute 1 (full range in both scopes).
    benchmark::DoNotOptimize(est.PerValuePredicateMasks(ranges, 1, preds));
  }
}
BENCHMARK(BM_PerValuePredicateMasks)
    ->ArgsProduct({{4, 10, 20}, {0, 1}})
    ->ArgNames({"k", "narrowed"})
    ->Unit(benchmark::kMicrosecond);

void BM_PerValueMasksOnePass(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = ds.schema().FullRanges();
  const std::vector<Predicate> preds = {Predicate(6, 4, 11),
                                        Predicate(7, 4, 11)};
  for (auto _ : state) {
    // One pass yields the "< x" side of every candidate split of attr 0.
    benchmark::DoNotOptimize(est.PerValuePredicateMasks(ranges, 0, preds));
  }
}
BENCHMARK(BM_PerValueMasksOnePass)->Unit(benchmark::kMicrosecond);

void BM_PerCandidateMasksRecount(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = ds.schema().FullRanges();
  const std::vector<Predicate> preds = {Predicate(6, 4, 11),
                                        Predicate(7, 4, 11)};
  const uint32_t k = ds.schema().domain_size(0);
  for (auto _ : state) {
    // The naive alternative: one full recount per candidate split point.
    for (Value x = 1; x < k; ++x) {
      const RangeVec lt = Refined(ranges, 0, ValueRange{0, static_cast<Value>(x - 1)});
      benchmark::DoNotOptimize(est.PredicateMasks(lt, preds));
    }
  }
}
BENCHMARK(BM_PerCandidateMasksRecount)->Unit(benchmark::kMicrosecond);

void BM_ChowLiuFit(benchmark::State& state) {
  const Dataset& ds = SharedData();
  for (auto _ : state) {
    ChowLiuEstimator est(ds);
    benchmark::DoNotOptimize(&est);
  }
}
BENCHMARK(BM_ChowLiuFit)->Unit(benchmark::kMillisecond);

void BM_ChowLiuConditional(benchmark::State& state) {
  const Dataset& ds = SharedData();
  ChowLiuEstimator est(ds);
  const RangeVec ranges = NarrowedRanges(ds.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Marginal(ranges, 5));
  }
}
BENCHMARK(BM_ChowLiuConditional)->Unit(benchmark::kMicrosecond);

void BM_CountingConditional(benchmark::State& state) {
  const Dataset& ds = SharedData();
  DatasetEstimator est(ds);
  const RangeVec ranges = NarrowedRanges(ds.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Marginal(ranges, 5));
  }
}
BENCHMARK(BM_CountingConditional)->Unit(benchmark::kMicrosecond);

}  // namespace
