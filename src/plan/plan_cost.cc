#include "plan/plan_cost.h"

#include "exec/executor.h"

namespace caqp {

namespace {

class ExpectedCoster {
 public:
  ExpectedCoster(const CompiledPlan& plan, CondProbEstimator& est,
                 const AcquisitionCostModel& cm)
      : plan_(plan), est_(est), cm_(cm), schema_(est.schema()) {}

  double Cost(uint32_t index, const RangeVec& ranges) {
    const CompiledPlan::Node& node = plan_.node(index);
    switch (node.kind) {
      case CompiledPlan::Kind::kVerdict:
        return 0.0;
      case CompiledPlan::Kind::kSequential:
        return SequentialCost(plan_.sequence(node), ranges);
      case CompiledPlan::Kind::kGeneric:
        return GenericCost(node, 0, ranges);
      case CompiledPlan::Kind::kSplit:
        break;
    }
    const AttrSet acquired = AcquiredAttrs(schema_, ranges);
    const double observe =
        acquired.Contains(node.attr) ? 0.0 : cm_.Cost(node.attr, acquired);
    const ValueRange r = ranges[node.attr];
    // Degenerate splits (possible after deserializing a foreign plan): the
    // whole mass goes to one side.
    if (node.split_value <= r.lo) return observe + Cost(node.a, ranges);
    if (node.split_value > r.hi) {
      return observe + Cost(CompiledPlan::LtChild(index), ranges);
    }

    const ValueRange lt_r{r.lo, static_cast<Value>(node.split_value - 1)};
    const ValueRange ge_r{node.split_value, r.hi};
    const double p_lt = est_.RangeProbability(ranges, node.attr, lt_r);
    double cost = observe;
    if (p_lt > 0) {
      cost += p_lt * Cost(CompiledPlan::LtChild(index),
                          Refined(ranges, node.attr, lt_r));
    }
    if (p_lt < 1.0) {
      cost += (1.0 - p_lt) * Cost(node.a, Refined(ranges, node.attr, ge_r));
    }
    return cost;
  }

 private:
  double SequentialCost(std::span<const Predicate> seq,
                        const RangeVec& ranges) {
    if (seq.empty()) return 0.0;
    const std::vector<Predicate> preds(seq.begin(), seq.end());
    const MaskDistribution masks = est_.PredicateMasks(ranges, preds);
    if (masks.total() <= 0) return 0.0;
    AttrSet acquired = AcquiredAttrs(schema_, ranges);
    double cost = 0.0;
    uint64_t prefix = 0;  // predicates already observed true
    for (size_t i = 0; i < seq.size(); ++i) {
      const double p_reach = masks.MassAllTrue(prefix) / masks.total();
      if (p_reach <= 0) break;
      const AttrId a = seq[i].attr;
      if (!acquired.Contains(a)) {
        cost += p_reach * cm_.Cost(a, acquired);
        acquired.Insert(a);
      }
      prefix |= uint64_t{1} << i;
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
    double cost =
        acquired.Contains(attr) ? 0.0 : cm_.Cost(attr, acquired);
    const Histogram h = est_.Marginal(ranges, attr);
    if (h.total() <= 0) return 0.0;
    for (Value v = ranges[attr].lo; v <= ranges[attr].hi; ++v) {
      const double p = h.Count(v) / h.total();
      if (p > 0) {
        cost += p * GenericCost(node, k + 1,
                                Refined(ranges, attr, ValueRange{v, v}));
      }
    }
    return cost;
  }

  const CompiledPlan& plan_;
  CondProbEstimator& est_;
  const AcquisitionCostModel& cm_;
  const Schema& schema_;
};

}  // namespace

double ExpectedPlanCost(const CompiledPlan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model) {
  return ExpectedSubplanCost(plan, 0, estimator.schema().FullRanges(),
                             estimator, cost_model);
}

double ExpectedPlanCost(const Plan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model) {
  return ExpectedPlanCost(CompiledPlan::Compile(plan), estimator, cost_model);
}

double ExpectedSubplanCost(const CompiledPlan& plan, uint32_t index,
                           const RangeVec& ranges,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model) {
  ExpectedCoster coster(plan, estimator, cost_model);
  return coster.Cost(index, ranges);
}

double ExpectedSubplanCost(const PlanNode& node, const RangeVec& ranges,
                           CondProbEstimator& estimator,
                           const AcquisitionCostModel& cost_model) {
  return ExpectedSubplanCost(CompiledPlan::Compile(node), 0, ranges, estimator,
                             cost_model);
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

EmpiricalCostResult EmpiricalPlanCost(const Plan& plan, const Dataset& data,
                                      const Query& query,
                                      const AcquisitionCostModel& cost_model,
                                      TraceSink* trace) {
  return EmpiricalPlanCost(CompiledPlan::Compile(plan), data, query,
                           cost_model, trace);
}

}  // namespace caqp
