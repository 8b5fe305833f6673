// Synthetic correlated dataset, implemented from the paper's description of
// the generator it adapts from Babu et al. [2] (Section 6 "Datasets"):
//
//  * n binary attributes, partitioned into groups of Gamma+1;
//  * any two attributes in the same group take identical values on ~80% of
//    tuples; attributes in different groups are independent;
//  * each attribute's marginal P(X = 1) is approximately `sel`;
//  * one attribute per group costs 1 unit (the cheap correlated proxy), the
//    rest cost 100 units;
//  * the benchmark query checks "every expensive attribute == 1".
//
// Mechanics: each group draws a latent bit g with P(g=1)=q, and each member
// copies g with probability rho, where rho solves rho^2 + (1-rho)^2 = 0.8
// (pairwise agreement) and q is set so the marginal equals sel, clamped to
// [0,1] (extreme `sel` values saturate, as they must: agreement 0.8 bounds
// the achievable marginals to [1-rho, rho]).

#ifndef CAQP_DATA_SYNTHETIC_GEN_H_
#define CAQP_DATA_SYNTHETIC_GEN_H_

#include "core/dataset.h"
#include "core/query.h"

namespace caqp {

struct SyntheticDataOptions {
  uint32_t n = 10;       ///< number of attributes
  uint32_t gamma = 1;    ///< correlation factor: group size = gamma + 1
  double sel = 0.5;      ///< target marginal P(X = 1)
  size_t tuples = 20000;
  uint64_t seed = 99;
};

Dataset GenerateSyntheticData(const SyntheticDataOptions& options);

/// The paper's benchmark query: every expensive (cost > cheap) attribute
/// equals 1.
Query SyntheticAllExpensiveQuery(const Schema& schema);

/// Number of expensive attributes (== predicates in the benchmark query).
size_t SyntheticExpensiveCount(const Schema& schema);

}  // namespace caqp

#endif  // CAQP_DATA_SYNTHETIC_GEN_H_
