#include "prob/independent_estimator.h"

namespace caqp {

IndependentEstimator::IndependentEstimator(const Dataset& data)
    : schema_(data.schema()) {
  marginals_.reserve(schema_.num_attributes());
  for (size_t a = 0; a < schema_.num_attributes(); ++a) {
    Histogram h(schema_.domain_size(static_cast<AttrId>(a)));
    for (Value v : data.column(static_cast<AttrId>(a))) h.Add(v);
    marginals_.push_back(std::move(h));
  }
}

Histogram IndependentEstimator::Marginal(const RangeVec& given, AttrId attr) {
  CAQP_CHECK(schema_.ValidRanges(given));
  // Under independence, conditioning on other attributes does nothing;
  // conditioning on this attribute's own range truncates the marginal.
  Histogram out(schema_.domain_size(attr));
  const Histogram& m = marginals_[attr];
  for (uint32_t v = given[attr].lo; v <= given[attr].hi; ++v) {
    if (m.Count(v) > 0) out.Add(v, m.Count(v));
  }
  return out;
}

double IndependentEstimator::ReachProbability(const RangeVec& given) {
  CAQP_CHECK(schema_.ValidRanges(given));
  double p = 1.0;
  for (size_t a = 0; a < given.size(); ++a) {
    p *= marginals_[a].Probability(given[a]);
  }
  return p;
}

double IndependentEstimator::IndepPredProb(const RangeVec& given,
                                           const Predicate& p) {
  const Histogram h = Marginal(given, p.attr);
  const double in = h.Probability(ValueRange{p.lo, p.hi});
  return p.negated ? 1.0 - in : in;
}

MaskDistribution IndependentEstimator::PredicateMasks(
    const RangeVec& given, const std::vector<Predicate>& preds) {
  CAQP_CHECK_LE(preds.size(), 20u);  // Product enumeration is 2^m.
  std::vector<double> probs(preds.size());
  for (size_t j = 0; j < preds.size(); ++j) {
    probs[j] = IndepPredProb(given, preds[j]);
  }
  MaskDistribution dist;
  const uint64_t limit = uint64_t{1} << preds.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    double w = 1.0;
    for (size_t j = 0; j < preds.size(); ++j) {
      w *= ((mask >> j) & 1) ? probs[j] : 1.0 - probs[j];
    }
    if (w > 0) dist.Add(mask, w);
  }
  dist.Aggregate();
  return dist;
}

std::vector<MaskDistribution> IndependentEstimator::PerValuePredicateMasks(
    const RangeVec& given, AttrId attr, const std::vector<Predicate>& preds) {
  // Under independence the predicate joint is unchanged by conditioning on
  // X_attr == v, except for predicates over `attr` itself.
  const ValueRange range = given[attr];
  std::vector<MaskDistribution> out;
  out.reserve(range.Width());
  const Histogram h = Marginal(given, attr);
  for (uint32_t v = range.lo; v <= range.hi; ++v) {
    const Value value = static_cast<Value>(v);
    RangeVec point = Refined(given, attr, ValueRange{value, value});
    MaskDistribution d = PredicateMasks(point, preds);
    // Scale by P(X_attr == v | given) so prefix unions over values form the
    // conditional "< x" distributions exactly as with counting.
    const double pv = h.ValueProbability(v);
    MaskDistribution scaled;
    for (const auto& [mask, w] : d.entries()) {
      const double t = d.total();
      if (t > 0 && pv > 0) scaled.Add(mask, w / t * pv);
    }
    scaled.Aggregate();
    out.push_back(std::move(scaled));
  }
  return out;
}

}  // namespace caqp
