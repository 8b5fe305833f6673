#include "data/workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "prob/histogram.h"

namespace caqp {

namespace {
/// Lab predicate width, in standard deviations of the attribute.
constexpr double kLabWidthStddevs = 2.0;
/// A garden range covers domain_size / f values for f uniform in
/// [kGardenMinFraction, kGardenMaxFraction].
constexpr double kGardenMinFraction = 1.25;
constexpr double kGardenMaxFraction = 3.25;
/// Chance that a garden query negates one sensor type's predicates.
constexpr double kGardenNegateProbability = 0.5;
}  // namespace

std::vector<Query> GenerateLabQueries(const Dataset& train,
                                      const std::vector<AttrId>& target_attrs,
                                      const LabQueryOptions& options) {
  CAQP_CHECK(!target_attrs.empty());
  const Schema& schema = train.schema();

  // Per-attribute stddev in discretized units, from the training data.
  std::vector<double> widths(target_attrs.size());
  for (size_t i = 0; i < target_attrs.size(); ++i) {
    Histogram h(schema.domain_size(target_attrs[i]));
    for (Value v : train.column(target_attrs[i])) h.Add(v);
    widths[i] = std::max(1.0, kLabWidthStddevs * h.StdDev());
  }

  Rng rng(options.seed);
  std::vector<Query> queries;
  queries.reserve(options.num_queries);
  for (size_t qi = 0; qi < options.num_queries; ++qi) {
    Conjunct preds;
    for (size_t i = 0; i < target_attrs.size(); ++i) {
      const uint32_t k = schema.domain_size(target_attrs[i]);
      const auto lo =
          static_cast<Value>(rng.UniformInt(0, static_cast<int64_t>(k) - 1));
      const auto hi = static_cast<Value>(std::min<int64_t>(
          k - 1, lo + static_cast<int64_t>(std::lround(widths[i]))));
      preds.emplace_back(target_attrs[i], lo, hi);
    }
    queries.push_back(Query::Conjunction(std::move(preds)));
  }
  return queries;
}

std::vector<Query> GenerateGardenQueries(
    const Schema& schema, const std::vector<AttrId>& temperature_attrs,
    const std::vector<AttrId>& humidity_attrs,
    const GardenQueryOptions& options) {
  CAQP_CHECK(!temperature_attrs.empty());
  CAQP_CHECK(!humidity_attrs.empty());
  Rng rng(options.seed);

  auto draw_range = [&](AttrId sample_attr) {
    const uint32_t k = schema.domain_size(sample_attr);
    const double f = rng.Uniform(kGardenMinFraction, kGardenMaxFraction);
    const auto width = static_cast<uint32_t>(
        std::max<int64_t>(1, std::lround(static_cast<double>(k) / f)));
    const auto max_lo = static_cast<int64_t>(k) - static_cast<int64_t>(width);
    const auto lo =
        static_cast<Value>(rng.UniformInt(0, std::max<int64_t>(0, max_lo)));
    const auto hi = static_cast<Value>(
        std::min<uint32_t>(k - 1, lo + width - 1));
    return ValueRange{lo, hi};
  };

  std::vector<Query> queries;
  queries.reserve(options.num_queries);
  for (size_t qi = 0; qi < options.num_queries; ++qi) {
    // Identical predicate per sensor type across all motes.
    const ValueRange temp_r = draw_range(temperature_attrs[0]);
    const ValueRange humid_r = draw_range(humidity_attrs[0]);
    const bool temp_neg = rng.Bernoulli(kGardenNegateProbability);
    const bool humid_neg = rng.Bernoulli(kGardenNegateProbability);

    Conjunct preds;
    for (AttrId a : temperature_attrs) {
      preds.emplace_back(a, temp_r.lo, temp_r.hi, temp_neg);
    }
    for (AttrId a : humidity_attrs) {
      preds.emplace_back(a, humid_r.lo, humid_r.hi, humid_neg);
    }
    queries.push_back(Query::Conjunction(std::move(preds)));
  }
  return queries;
}

}  // namespace caqp
