// CondProbEstimator: the oracle interface the planners use for every
// conditional probability (paper Sections 2.3 and 5). Implementations:
//
//  * DatasetEstimator     -- exact counting over a historical dataset,
//                            through a bitmap count index over its distinct
//                            tuples, each weighted by its row multiplicity,
//                            that stands in for Section 5's per-subproblem
//                            row lists.
//  * IndependentEstimator -- attribute-independence approximation (the
//                            assumption baked into the Naive optimizer);
//                            useful as an ablation.
//  * ChowLiuEstimator     -- tree-structured graphical model (Section 7,
//                            "Graphical Models"): compact, smooth estimates
//                            that do not degrade as subproblems shrink.
//
// All conditioning is expressed as a RangeVec: one inclusive value range per
// schema attribute ("X_1 in R_1 AND ... AND X_n in R_n"), which is exactly
// the shape of every subproblem the planners generate.
//
// Thread safety: the interface is deliberately non-const (implementations
// may keep incremental per-query state), so an estimator instance is safe to
// share across threads only if its implementation says so. All three
// implementations here mutate nothing after construction and keep their
// scratch per call, so each is safe for concurrent use. Planner thread
// safety (opt/planner.h) is exactly the thread safety of the estimator the
// planner references.

#ifndef CAQP_PROB_ESTIMATOR_H_
#define CAQP_PROB_ESTIMATOR_H_

#include <vector>

#include "core/predicate.h"
#include "core/schema.h"
#include "prob/histogram.h"
#include "prob/subproblem.h"

namespace caqp {

class CondProbEstimator {
 public:
  virtual ~CondProbEstimator() = default;

  virtual const Schema& schema() const = 0;

  /// Normalized-by-construction weighted histogram of `attr` conditioned on
  /// the ranges: counts restricted to tuples satisfying X_i in given[i] for
  /// all i. (Callers normalize via Histogram::Probability.)
  virtual Histogram Marginal(const RangeVec& given, AttrId attr) = 0;

  /// P(X_1 in given[1] AND ... AND X_n in given[n]): the probability a tuple
  /// reaches this subproblem, used as the leaf-expansion weight in
  /// GreedyPlan (Figure 7).
  virtual double ReachProbability(const RangeVec& given) = 0;

  /// Joint distribution over the truth bitmasks of `preds`, conditioned on
  /// the ranges. preds.size() <= 64.
  virtual MaskDistribution PredicateMasks(
      const RangeVec& given, const std::vector<Predicate>& preds) = 0;

  /// For a split-point sweep on `attr` (current range given[attr] = [a,b]):
  /// one MaskDistribution per value v in [a,b] (index 0 == value a), i.e.,
  /// the joint of predicate truths restricted to X_attr == v. Prefix unions
  /// of these give the "<x" side of every candidate split in one pass
  /// (Section 5.2's incremental rule).
  virtual std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) = 0;

  // ---- Derived conveniences (implemented on top of the virtuals) ----

  /// P(X_attr in r | given).
  double RangeProbability(const RangeVec& given, AttrId attr, ValueRange r) {
    return Marginal(given, attr).Probability(r);
  }

  /// P(pred true | given).
  double PredicateProbability(const RangeVec& given, const Predicate& pred) {
    const double in =
        RangeProbability(given, pred.attr, ValueRange{pred.lo, pred.hi});
    return pred.negated ? 1.0 - in : in;
  }

  /// Scope hints. No planner issues them and no estimator here uses them;
  /// they remain only so existing forwarding wrappers that override them
  /// keep compiling.
  virtual void PushScope(const RangeVec& /*ranges*/) {}
  virtual void PopScope() {}
};

}  // namespace caqp

#endif  // CAQP_PROB_ESTIMATOR_H_
