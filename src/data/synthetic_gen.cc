#include "data/synthetic_gen.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"

namespace caqp {

namespace {

/// Paper costs: the cheap correlated proxy 1 unit, the rest 100 units.
constexpr double kExpensiveCost = 100.0;
constexpr double kCheapCost = 1.0;
/// Pairwise within-group agreement probability (paper: 80%).
constexpr double kAgreement = 0.8;

}  // namespace

Dataset GenerateSyntheticData(const SyntheticDataOptions& options) {
  CAQP_CHECK_GE(options.n, 2u);
  CAQP_CHECK_GE(options.gamma, 1u);

  const uint32_t group_size = options.gamma + 1;
  const uint32_t num_groups = (options.n + group_size - 1) / group_size;

  Schema schema;
  for (uint32_t a = 0; a < options.n; ++a) {
    const uint32_t group = a / group_size;
    const bool cheap = (a % group_size) == 0;  // first attr of each group
    // append(), not `"g" + std::to_string(...)`: GCC 12 reports a false
    // -Werror=restrict on the latter in Release builds.
    schema.AddAttribute(std::string("g")
                            .append(std::to_string(group))
                            .append("_a")
                            .append(std::to_string(a % group_size)),
                        2, cheap ? kCheapCost : kExpensiveCost);
  }

  // rho^2 + (1 - rho)^2 = agreement  =>  rho = (1 + sqrt(2*agreement-1))/2.
  const double rho = 0.5 * (1.0 + std::sqrt(2.0 * kAgreement - 1.0));
  // Marginal: q*rho + (1-q)*(1-rho) = sel => q = (sel - (1-rho))/(2rho - 1).
  const double q = std::clamp(
      (options.sel - (1.0 - rho)) / (2.0 * rho - 1.0), 0.0, 1.0);

  Rng rng(options.seed);
  Dataset data(schema);
  Tuple t(options.n);
  std::vector<bool> latent(num_groups);
  for (size_t row = 0; row < options.tuples; ++row) {
    for (uint32_t g = 0; g < num_groups; ++g) latent[g] = rng.Bernoulli(q);
    for (uint32_t a = 0; a < options.n; ++a) {
      const bool base = latent[a / group_size];
      const bool bit = rng.Bernoulli(rho) ? base : !base;
      t[a] = bit ? 1 : 0;
    }
    data.Append(t);
  }
  return data;
}

Query SyntheticAllExpensiveQuery(const Schema& schema) {
  Conjunct preds;
  double min_cost = schema.cost(0);
  for (size_t a = 1; a < schema.num_attributes(); ++a) {
    min_cost = std::min(min_cost, schema.cost(static_cast<AttrId>(a)));
  }
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (schema.cost(static_cast<AttrId>(a)) > min_cost) {
      preds.emplace_back(static_cast<AttrId>(a), Value{1}, Value{1});
    }
  }
  CAQP_CHECK(!preds.empty());
  return Query::Conjunction(std::move(preds));
}

size_t SyntheticExpensiveCount(const Schema& schema) {
  return SyntheticAllExpensiveQuery(schema).predicates().size();
}

}  // namespace caqp
