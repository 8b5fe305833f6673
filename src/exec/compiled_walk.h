// WalkCompiled — the executor's per-tuple walk over a CompiledPlan
// (internal), and the only code in the library that evaluates a plan one
// row at a time. Two callers share it: ExecutePlan (exec/executor.cc) —
// and through its uninstrumented instantiation the plan verifiers
// (plan/plan_verify.h) — enters at the root over any AcquisitionSource, and
// the columnar engine (exec/batch_executor.h) resumes diverted rows mid-plan
// over its concrete row source — in both modes the rows that reach a
// generic leaf, and in fault mode the rows whose acquisition fails.

#ifndef CAQP_EXEC_COMPILED_WALK_H_
#define CAQP_EXEC_COMPILED_WALK_H_

#include <algorithm>
#include <cstdint>

#include "exec/executor.h"

namespace caqp::internal {

// The per-tuple walk, entered at node `idx` with `out` and `values`
// (kMaxAttributes slots, valid where out.acquired has the bit set) holding
// the state a tuple has on entering that node — empty at the root. With
// leaf_step = k >= 0 the walk instead resumes inside sequential leaf `idx`
// just before its conjunct k: every earlier conjunct passed, and the leaf's
// NodeEval and their PredEvals are already counted. The rest of the walk is
// exactly what a root entry would do from there, so a resumed result is the
// root-entry result bit for bit. Kept textually parallel to the tree-walk
// reference in tests/test_util.h (ExecuteTreeReference) on purpose: the two
// must stay semantically identical (the tree<->flat equivalence property
// test in tests/compiled_plan_test.cc enforces it across planners,
// workloads, and fault profiles). Always inlined, so ExecuteCompiledImpl's
// root entry (idx 0, leaf_step -1) compiles to the same code as a root-only
// walk.
template <bool kTraced, bool kProfiled, typename Source = AcquisitionSource>
__attribute__((always_inline)) inline void WalkCompiled(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, Source& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile, uint32_t idx, int leaf_step, Value* values,
    ExecutionResult& out) {
  const int max_attempts =
      policy.mode == DegradationPolicy::Mode::kRetry
          ? std::max(1, policy.max_attempts)
          : 1;

  // Attempt loop for an attribute known to be neither acquired nor failed
  // yet (first-acquisition splits branch here directly, with no set lookup).
  auto attempt = [&](AttrId a, Value* v) -> bool {
    for (int att = 0; att < max_attempts; ++att) {
      const AcquiredValue av = source.Acquire(a);
      double marginal = cost_model.Cost(a, out.acquired) * av.cost_multiplier;
      if (att > 0) {
        marginal *= policy.retry_cost_multiplier;
        ++out.retries;
      }
      out.cost += marginal;
      if (av.ok) {
        out.acquired.Insert(a);
        ++out.acquisitions;
        values[a] = av.value;
        if constexpr (kTraced) trace->OnAcquire(a, av.value, marginal);
        *v = av.value;
        return true;
      }
      if (av.permanent) break;  // stuck sensor: retrying cannot help
    }
    out.failed.Insert(a);
    return false;
  };

  // Leaf-path acquisition: leaves may reference attributes the split walk
  // already acquired (or failed), so the full checks remain here.
  auto acquire = [&](AttrId a, Value* v) -> bool {
    if (out.acquired.Contains(a)) {
      *v = values[a];
      return true;
    }
    if (out.failed.Contains(a)) return false;
    return attempt(a, v);
  };

  auto degrade = [&]() -> bool {
    out.verdict3 = Truth::kUnknown;
    if (policy.mode == DegradationPolicy::Mode::kAbort) {
      out.aborted = true;
      return true;
    }
    return false;
  };

  const CompiledPlan::Node* n = &plan.node(idx);
  Value v = 0;
  bool routed = true;
  while (n->kind == CompiledPlan::Kind::kSplit) {
    if constexpr (kProfiled) profile->NodeEval(idx);
    if (n->first_acquisition()) {
      if (!attempt(n->attr, &v)) {
        // A split cannot route without its attribute: no residual conjuncts
        // are visible here, so the verdict degrades straight to Unknown.
        if constexpr (kProfiled) profile->NodeUnknown(idx);
        (void)degrade();
        routed = false;
        break;
      }
    } else {
      // A repeat split is only reachable when the first acquisition on this
      // path succeeded (a failure ends the walk above): cached value, no
      // set lookup.
      v = values[n->attr];
    }
    const bool ge = v >= n->split_value;
    if constexpr (kTraced) trace->OnBranch(n->attr, n->split_value, ge);
    if constexpr (kProfiled) {
      profile->PredEval(n->attr, ge);
      if (ge) profile->NodePass(idx);
    }
    idx = ge ? n->a : idx + 1;
    n = &plan.node(idx);
  }

  if (routed) {
    if constexpr (kProfiled) {
      if (leaf_step < 0) profile->NodeEval(idx);
    }
    switch (n->kind) {
      case CompiledPlan::Kind::kVerdict:
        out.verdict3 = n->verdict() ? Truth::kTrue : Truth::kFalse;
        break;
      case CompiledPlan::Kind::kSequential: {
        Truth t = Truth::kTrue;
        for (const Predicate& p :
             plan.sequence(*n).subspan(leaf_step < 0 ? 0 : leaf_step)) {
          if (!acquire(p.attr, &v)) {
            if (degrade()) break;
            t = Truth::kUnknown;
            continue;
          }
          const bool match = p.Matches(v);
          if constexpr (kProfiled) profile->PredEval(p.attr, match);
          if (!match) {
            t = Truth::kFalse;
            break;
          }
        }
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case CompiledPlan::Kind::kGeneric: {
        const Query& query = plan.residual_query(*n);
        RangeVec ranges = schema.FullRanges();
        for (size_t a = 0; a < schema.num_attributes(); ++a) {
          if (out.acquired.Contains(static_cast<AttrId>(a))) {
            ranges[a] = ValueRange{values[a], values[a]};
          }
        }
        Truth t = query.EvaluateOnRanges(ranges);
        for (const AttrId a : plan.acquire_order(*n)) {
          if (t != Truth::kUnknown) break;
          if (!acquire(a, &v)) {
            if (degrade()) break;
            continue;  // range stays full; later attributes may still decide
          }
          ranges[a] = ValueRange{v, v};
          t = query.EvaluateOnRanges(ranges);
        }
        // Without failures the acquisition order must resolve the query.
        CAQP_CHECK(t != Truth::kUnknown || out.failed.Count() > 0);
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case CompiledPlan::Kind::kSplit:
        CAQP_CHECK(false);
    }
    if constexpr (kProfiled) {
      if (out.verdict3 == Truth::kTrue) {
        profile->NodePass(idx);
      } else if (out.verdict3 == Truth::kUnknown) {
        profile->NodeUnknown(idx);
      }
    }
  }
  out.verdict = out.verdict3 == Truth::kTrue;
}

}  // namespace caqp::internal

#endif  // CAQP_EXEC_COMPILED_WALK_H_
