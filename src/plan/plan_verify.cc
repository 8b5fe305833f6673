#include "plan/plan_verify.h"

#include "common/rng.h"
#include "exec/executor.h"
#include "opt/cost_model.h"
#include "prob/subproblem.h"

namespace caqp {

namespace {

/// The verdict the executing walk reaches for `t` under infallible
/// acquisition. The uninstrumented instantiation keeps verification out of
/// the exec.* counters.
bool WalkVerdict(const CompiledPlan& plan, const Schema& schema,
                 const AcquisitionCostModel& cost_model, const Tuple& t) {
  TupleSource source(t);
  return internal::ExecuteCompiledImpl<false, false>(
             plan, schema, cost_model, source, /*trace=*/nullptr,
             DegradationPolicy{}, /*profile=*/nullptr)
      .verdict;
}

uint64_t DomainProduct(const Schema& schema, uint64_t cap) {
  uint64_t product = 1;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    product *= schema.domain_size(static_cast<AttrId>(a));
    if (product > cap) return cap + 1;
  }
  return product;
}

}  // namespace

PlanVerificationResult VerifyPlanExhaustive(const CompiledPlan& plan,
                                            const Query& query,
                                            const Schema& schema,
                                            uint64_t max_tuples) {
  CAQP_CHECK(query.ValidFor(schema));
  CAQP_CHECK_LE(DomainProduct(schema, max_tuples), max_tuples);
  const PerAttributeCostModel cost_model(schema);
  PlanVerificationResult res;
  Tuple t(schema.num_attributes(), 0);
  while (true) {
    ++res.tuples_checked;
    if (WalkVerdict(plan, schema, cost_model, t) != query.Matches(t)) {
      res.correct = false;
      res.counterexample = t;
      return res;
    }
    // Odometer increment over the domain product. The digit is tested
    // before it is stored, so a 65536-value domain cannot wrap it.
    size_t a = 0;
    for (; a < t.size(); ++a) {
      if (t[a] + 1u < schema.domain_size(static_cast<AttrId>(a))) {
        ++t[a];
        break;
      }
      t[a] = 0;
    }
    if (a == t.size()) break;
  }
  return res;
}

PlanVerificationResult VerifyPlanSampled(const CompiledPlan& plan,
                                         const Query& query,
                                         const Schema& schema,
                                         uint64_t samples, uint64_t seed) {
  CAQP_CHECK(query.ValidFor(schema));
  const PerAttributeCostModel cost_model(schema);
  PlanVerificationResult res;
  Rng rng(seed);
  Tuple t(schema.num_attributes());
  for (uint64_t i = 0; i < samples; ++i) {
    for (size_t a = 0; a < t.size(); ++a) {
      t[a] = static_cast<Value>(
          rng.UniformInt(0, schema.domain_size(static_cast<AttrId>(a)) - 1));
    }
    ++res.tuples_checked;
    if (WalkVerdict(plan, schema, cost_model, t) != query.Matches(t)) {
      res.correct = false;
      res.counterexample = t;
      return res;
    }
  }
  return res;
}

bool PlanIsWellFormed(const CompiledPlan& plan, const Schema& schema) {
  // Field-level checks over the flat node array (the preorder topology
  // itself is validated by construction / deserialization).
  for (uint32_t i = 0; i < plan.NumNodes(); ++i) {
    const CompiledPlan::Node& n = plan.node(i);
    switch (n.kind) {
      case CompiledPlan::Kind::kSplit:
        if (n.attr >= schema.num_attributes()) return false;
        if (n.split_value < 1 ||
            n.split_value >= schema.domain_size(n.attr)) {
          return false;
        }
        break;
      case CompiledPlan::Kind::kVerdict:
        break;
      case CompiledPlan::Kind::kSequential:
        for (const Predicate& p : plan.sequence(n)) {
          if (p.attr >= schema.num_attributes()) return false;
          if (p.lo > p.hi || p.hi >= schema.domain_size(p.attr)) return false;
        }
        break;
      case CompiledPlan::Kind::kGeneric: {
        const Query& query = plan.residual_query(n);
        if (!query.ValidFor(schema)) return false;
        AttrSet in_order;
        for (AttrId a : plan.acquire_order(n)) {
          if (a >= schema.num_attributes()) return false;
          in_order.Insert(a);
        }
        // Every referenced attribute must be acquirable, or the executor
        // could stall with an unresolved query.
        for (AttrId a : query.ReferencedAttributes()) {
          if (!in_order.Contains(a)) return false;
        }
        break;
      }
    }
  }
  return true;
}

}  // namespace caqp
