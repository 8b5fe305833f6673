// ChowLiuEstimator: a tree-structured probabilistic graphical model over the
// attributes, fit by the Chow-Liu procedure (maximum-spanning tree on
// pairwise mutual information). This implements the "Graphical Models"
// extension of the paper's Section 7: direct counting needs a linear scan per
// probability and degrades after a few splits (each split halves the data a
// subproblem sees, so estimates get noisy); a tree model is O(n K^2) per
// query and is smoothed, so deep subproblems keep low-variance estimates.
//
// Range evidence (the RangeVec conditioning used by all planners) is exact:
// marginals and reach probabilities come from evidence-weighted message
// passing on the tree. Predicate-mask joints are estimated by exact
// ancestral sampling from the conditioned tree (deterministic per query:
// the sampler is reseeded from a hash of the evidence). Every marginal and
// pairwise joint cell gets Laplace smoothing alpha = 0.5.
//
// Thread-safe after construction: the fitted tree is read-only and each
// query's sampler state is local to the call, so one instance may serve
// concurrent planners.

#ifndef CAQP_PROB_CHOW_LIU_H_
#define CAQP_PROB_CHOW_LIU_H_

#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "prob/estimator.h"

namespace caqp {

class ChowLiuEstimator : public CondProbEstimator {
 public:
  struct Options {
    /// Samples drawn per PredicateMasks / PerValuePredicateMasks call.
    size_t sample_count = 8192;
    /// Base seed for the per-call deterministic sampler.
    uint64_t seed = 0x9e3779b9;
  };

  explicit ChowLiuEstimator(const Dataset& data, Options opts);
  explicit ChowLiuEstimator(const Dataset& data)
      : ChowLiuEstimator(data, Options()) {}

  const Schema& schema() const override { return schema_; }

  Histogram Marginal(const RangeVec& given, AttrId attr) override;
  double ReachProbability(const RangeVec& given) override;
  MaskDistribution PredicateMasks(const RangeVec& given,
                                  const std::vector<Predicate>& preds) override;
  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override;

  /// Tree structure introspection: parent of `a` in the rooted tree
  /// (kInvalidAttr for the root).
  AttrId ParentOf(AttrId a) const { return nodes_[a].parent; }

  /// The mutual information of the tree edge into `a` (0 for the root).
  double EdgeMutualInformation(AttrId a) const { return nodes_[a].edge_mi; }

  /// Log-likelihood of a tuple under the fitted model (for tests).
  double LogLikelihood(const Tuple& t) const;

 private:
  struct Node {
    AttrId parent = kInvalidAttr;
    std::vector<AttrId> children;
    double edge_mi = 0.0;
    /// Node marginal P(X_a = v), smoothed.
    std::vector<double> marginal;
    /// cond[pv][v] = P(X_a = v | X_parent = pv); for the root, cond has one
    /// row equal to the marginal.
    std::vector<std::vector<double>> cond;
  };

  /// Evidence weights W[a][v] = P(evidence in the subtree below a | X_a = v),
  /// for nodes in topological (parent-before-child) order.
  std::vector<std::vector<double>> EvidenceWeights(const RangeVec& given) const;

  /// Draws one tuple by ancestral sampling from the evidence-conditioned
  /// tree. `weights` must come from EvidenceWeights(given).
  Tuple SampleConditioned(const RangeVec& given,
                          const std::vector<std::vector<double>>& weights,
                          Rng& rng) const;

  Schema schema_;
  Options opts_;
  std::vector<Node> nodes_;
  /// Node ids in parent-before-child order, nodes_order_[0] == root.
  std::vector<AttrId> topo_order_;
};

}  // namespace caqp

#endif  // CAQP_PROB_CHOW_LIU_H_
