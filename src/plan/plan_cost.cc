#include "plan/plan_cost.h"

#include "exec/executor.h"
#include "prob/subproblem.h"

namespace caqp {

namespace {

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

double Clamp01(double v) { return Clamp(v, 0.0, 1.0); }

/// Expected-attempts multiplier for a transient-failure rate f under
/// retry-until-success.
double FaultMultiplier(double f) { return 1.0 / (1.0 - Clamp(f, 0.0, 0.99)); }

const CostScenario kPointScenario{};

/// The Eq. 3 walk. Cost() returns the expected completion cost of the
/// subtree at a node, given the ranges implied by the splits above it. When
/// `out` is set, the walk also records each node it visits: the node's reach
/// (the `reach` argument, which never enters the returned cost), its pass
/// probability, the cost it charges, and the per-attribute eval/pass rates
/// (plan/plan_estimates.h). Nodes it never visits keep the unreachable
/// default.
class CostWalk {
 public:
  CostWalk(const CompiledPlan& plan, CondProbEstimator& est,
           const AcquisitionCostModel& cm, const CostScenario& scenario,
           PlanEstimates* out = nullptr)
      : plan_(plan),
        est_(est),
        cm_(cm),
        scenario_(scenario),
        schema_(est.schema()),
        out_(out) {}

  double Cost(uint32_t index, const RangeVec& ranges, double reach) {
    const CompiledPlan::Node& node = plan_.node(index);
    NodeEstimate* e = out_ != nullptr ? &out_->nodes[index] : nullptr;
    if (e != nullptr) e->reach = reach;
    switch (node.kind) {
      case CompiledPlan::Kind::kVerdict:
        if (e != nullptr) e->pass = node.verdict() ? 1.0 : 0.0;
        return 0.0;
      case CompiledPlan::Kind::kSequential:
        return SequentialCost(plan_.sequence(node), ranges, reach, e);
      case CompiledPlan::Kind::kGeneric: {
        // The residual walk's evaluation order is data-dependent, so there
        // is no single pass probability and no per-attribute contribution.
        const double cost = GenericCost(node, 0, ranges);
        if (e != nullptr) e->cost = cost;
        return cost;
      }
      case CompiledPlan::Kind::kSplit:
        break;
    }
    const AttrSet acquired = AcquiredAttrs(schema_, ranges);
    const double observe =
        acquired.Contains(node.attr) ? 0.0 : Charge(node.attr, acquired);
    if (e != nullptr) e->cost = observe;
    const ValueRange r = ranges[node.attr];
    // Degenerate splits (possible after deserializing a foreign plan): the
    // whole mass goes to one side, and the dead side stays unreached.
    if (node.split_value <= r.lo) {
      RecordSplit(e, node.attr, reach, 1.0);
      return observe + Cost(node.a, ranges, reach);
    }
    if (node.split_value > r.hi) {
      RecordSplit(e, node.attr, reach, 0.0);
      return observe + Cost(CompiledPlan::LtChild(index), ranges, reach);
    }

    const ValueRange lt_r{r.lo, static_cast<Value>(node.split_value - 1)};
    const ValueRange ge_r{node.split_value, r.hi};
    // The split's "pass" is the >= branch, so the shift perturbs p_ge and
    // p_lt follows as its complement.
    const double p_ge =
        Clamp01(1.0 - est_.RangeProbability(ranges, node.attr, lt_r) +
                scenario_.shift[node.attr]);
    const double p_lt = 1.0 - p_ge;
    RecordSplit(e, node.attr, reach, p_ge);
    double cost = observe;
    if (p_lt > 0) {
      cost += p_lt * Cost(CompiledPlan::LtChild(index),
                          Refined(ranges, node.attr, lt_r), reach * p_lt);
    }
    if (p_ge > 0) {
      cost += p_ge *
              Cost(node.a, Refined(ranges, node.attr, ge_r), reach * p_ge);
    }
    return cost;
  }

 private:
  double Charge(AttrId attr, const AttrSet& acquired) const {
    return cm_.Cost(attr, acquired) * FaultMultiplier(scenario_.fault[attr]);
  }

  double SequentialCost(std::span<const Predicate> seq, const RangeVec& ranges,
                        double reach, NodeEstimate* e) {
    if (seq.empty()) {
      if (e != nullptr) e->pass = 1.0;
      return 0.0;
    }
    const std::vector<Predicate> preds(seq.begin(), seq.end());
    const MaskDistribution masks = est_.PredicateMasks(ranges, preds);
    // No mass reaches here under the estimator: nothing to predict.
    if (masks.total() <= 0) return 0.0;
    AttrSet acquired = AcquiredAttrs(schema_, ranges);
    double cost = 0.0;
    double p_prefix = 1.0;  // P(every predicate so far passed)
    double prefix_mass = masks.total();  // its point-estimate mass
    uint64_t prefix = 0;
    for (size_t i = 0; i < seq.size(); ++i) {
      if (p_prefix <= 0 || prefix_mass <= 0) break;
      const AttrId a = seq[i].attr;
      if (!acquired.Contains(a)) {
        cost += p_prefix * Charge(a, acquired);
        acquired.Insert(a);
      }
      // Point conditional pass probability of predicate i given the prefix
      // passed, shifted by the attribute's scenario shift.
      prefix |= uint64_t{1} << i;
      const double next_mass = masks.MassAllTrue(prefix);
      const double p_pass =
          p_prefix * Clamp01(next_mass / prefix_mass + scenario_.shift[a]);
      RecordEval(a, reach * p_prefix, reach * p_pass);
      p_prefix = p_pass;
      prefix_mass = next_mass;
    }
    if (e != nullptr) {
      e->pass = p_prefix;
      e->cost = cost;
    }
    return cost;
  }

  double GenericCost(const CompiledPlan::Node& node, size_t k,
                     const RangeVec& ranges) {
    const Query& query = plan_.residual_query(node);
    if (query.EvaluateOnRanges(ranges) != Truth::kUnknown) {
      return 0.0;
    }
    const std::span<const AttrId> order = plan_.acquire_order(node);
    if (k >= order.size()) return 0.0;
    const AttrId attr = order[k];
    const AttrSet acquired = AcquiredAttrs(schema_, ranges);
    double cost = acquired.Contains(attr) ? 0.0 : Charge(attr, acquired);
    const Histogram h = est_.Marginal(ranges, attr);
    if (h.total() <= 0) return 0.0;
    for (uint32_t v = ranges[attr].lo; v <= ranges[attr].hi; ++v) {
      const double p = h.Count(v) / h.total();
      if (p > 0) {
        const ValueRange point{static_cast<Value>(v), static_cast<Value>(v)};
        cost += p * GenericCost(node, k + 1, Refined(ranges, attr, point));
      }
    }
    return cost;
  }

  void RecordSplit(NodeEstimate* e, AttrId attr, double reach, double p_ge) {
    if (e == nullptr) return;
    e->pass = p_ge;
    RecordEval(attr, reach, reach * p_ge);
  }

  void RecordEval(AttrId attr, double evals, double passes) {
    if (out_ == nullptr) return;
    out_->attr_eval_rate[attr] += evals;
    out_->attr_pass_rate[attr] += passes;
  }

  const CompiledPlan& plan_;
  CondProbEstimator& est_;
  const AcquisitionCostModel& cm_;
  const CostScenario& scenario_;
  const Schema& schema_;
  PlanEstimates* out_;
};

}  // namespace

double ExpectedPlanCost(const CompiledPlan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model,
                        const CostScenario& scenario) {
  CostWalk walk(plan, estimator, cost_model, scenario);
  return walk.Cost(0, estimator.schema().FullRanges(), 1.0);
}

double ExpectedSubplanCost(const CompiledPlan& plan, uint32_t index,
                           const RangeVec& ranges,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model) {
  CostWalk walk(plan, estimator, cost_model, kPointScenario);
  return walk.Cost(index, ranges, 1.0);
}

PlanEstimates EstimatePlan(const CompiledPlan& plan,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model) {
  PlanEstimates out;
  out.nodes.resize(plan.NumNodes());
  CostWalk walk(plan, estimator, cost_model, kPointScenario, &out);
  out.expected_cost = walk.Cost(0, estimator.schema().FullRanges(), 1.0);
  return out;
}

EmpiricalCostResult EmpiricalPlanCost(const CompiledPlan& plan,
                                      const Dataset& data, const Query& query,
                                      const AcquisitionCostModel& cost_model,
                                      TraceSink* trace) {
  EmpiricalCostResult res;
  res.tuples = data.num_rows();
  size_t total_acq = 0;
  RowSource source(data);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    source.SetRow(r);
    const ExecutionResult run =
        ExecutePlan(plan, data.schema(), cost_model, source, trace);
    res.total_cost += run.cost;
    total_acq += static_cast<size_t>(run.acquisitions);
    const bool truth = query.Matches(data.GetTuple(r));
    if (truth != run.verdict) ++res.verdict_errors;
  }
  if (res.tuples > 0) {
    res.mean_cost = res.total_cost / res.tuples;
    res.mean_acquisitions = static_cast<double>(total_acq) / res.tuples;
  }
  return res;
}

}  // namespace caqp
