#include "exec/executor.h"

#include <algorithm>
#include <type_traits>

#include "exec/compiled_walk.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace caqp {
namespace internal {

// Templating on kTraced lets the no-trace instantiation drop every event
// hook at compile time: ExecutePlan with a null sink runs the exact same
// code as an uninstrumented executor (bench/bench_obs_overhead.cc measures
// the residual dispatch cost). kProfiled does the same for the calibration
// counter hooks (exec/exec_profile.h). aligned(64): these are the library's
// hottest loops, and cache-line-aligned entry keeps their per-tuple cost
// stable across otherwise-unrelated link-order changes — the overhead bench
// compares them against equally aligned mirrors at ns/tuple resolution.
template <bool kTraced, bool kProfiled>
__attribute__((aligned(64))) ExecutionResult ExecutePlanImpl(
    const Plan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile) {
  ExecutionResult out;
  // Cache of acquired values; valid where out.acquired has the bit set.
  std::vector<Value> values(schema.num_attributes(), 0);
  const int max_attempts =
      policy.mode == DegradationPolicy::Mode::kRetry
          ? std::max(1, policy.max_attempts)
          : 1;

  // Acquires `a` (retrying per policy), returning true and filling *v on
  // success. Every attempt is charged: the sensor is energized whether or
  // not it returns a sample. A permanently failed attribute is remembered so
  // later plan references don't pay again for a sensor known to be dead.
  auto acquire = [&](AttrId a, Value* v) -> bool {
    if (out.acquired.Contains(a)) {
      *v = values[a];
      return true;
    }
    if (out.failed.Contains(a)) return false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const AcquiredValue av = source.Acquire(a);
      double marginal = cost_model.Cost(a, out.acquired) * av.cost_multiplier;
      if (attempt > 0) {
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

  // Sets the degraded outcome for a failed acquisition the plan could not
  // work around; returns true when execution must stop (kAbort).
  auto degrade = [&]() -> bool {
    out.verdict3 = Truth::kUnknown;
    if (policy.mode == DegradationPolicy::Mode::kAbort) {
      out.aborted = true;
      return true;
    }
    return false;
  };

  const PlanNode* n = &plan.root();
  Value v = 0;
  bool routed = true;
  while (n->kind == PlanNode::Kind::kSplit) {
    if constexpr (kProfiled) profile->NodeEval(n->id);
    if (!acquire(n->attr, &v)) {
      // A split cannot route without its attribute: no residual conjuncts
      // are visible here, so the verdict degrades straight to Unknown.
      if constexpr (kProfiled) profile->NodeUnknown(n->id);
      (void)degrade();
      routed = false;
      break;
    }
    const bool ge = v >= n->split_value;
    if constexpr (kTraced) trace->OnBranch(n->attr, n->split_value, ge);
    if constexpr (kProfiled) {
      profile->PredEval(n->attr, ge);
      if (ge) profile->NodePass(n->id);
    }
    n = ge ? n->ge.get() : n->lt.get();
  }

  if (routed) {
    if constexpr (kProfiled) profile->NodeEval(n->id);
    switch (n->kind) {
      case PlanNode::Kind::kVerdict:
        out.verdict3 = n->verdict ? Truth::kTrue : Truth::kFalse;
        break;
      case PlanNode::Kind::kSequential: {
        // Three-valued short-circuit AND: a failed acquisition leaves the
        // conjunct Unknown but scanning continues — a later false conjunct
        // still decides the verdict (defined kFalse).
        Truth t = Truth::kTrue;
        for (const Predicate& p : n->sequence) {
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
      case PlanNode::Kind::kGeneric: {
        RangeVec ranges = schema.FullRanges();
        for (size_t a = 0; a < schema.num_attributes(); ++a) {
          if (out.acquired.Contains(static_cast<AttrId>(a))) {
            ranges[a] = ValueRange{values[a], values[a]};
          }
        }
        Truth t = n->residual_query.EvaluateOnRanges(ranges);
        for (size_t k = 0; t == Truth::kUnknown && k < n->acquire_order.size();
             ++k) {
          const AttrId a = n->acquire_order[k];
          if (!acquire(a, &v)) {
            if (degrade()) break;
            continue;  // range stays full; later attributes may still decide
          }
          ranges[a] = ValueRange{v, v};
          t = n->residual_query.EvaluateOnRanges(ranges);
        }
        // Without failures the acquisition order must resolve the query.
        CAQP_CHECK(t != Truth::kUnknown || out.failed.Count() > 0);
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case PlanNode::Kind::kSplit:
        CAQP_CHECK(false);
    }
    if constexpr (kProfiled) {
      if (out.verdict3 == Truth::kTrue) {
        profile->NodePass(n->id);
      } else if (out.verdict3 == Truth::kUnknown) {
        profile->NodeUnknown(n->id);
      }
    }
  }
  out.verdict = out.verdict3 == Truth::kTrue;
  if constexpr (kTraced) trace->OnVerdict(out.verdict, out.cost);
  if constexpr (kProfiled) {
    profile->EndExecution(out.cost, out.acquisitions,
                          out.verdict3 == Truth::kUnknown);
  }
  return out;
}

// Root entry of the flat walk (exec/compiled_walk.h).
template <bool kTraced, bool kProfiled>
__attribute__((aligned(64))) ExecutionResult ExecuteCompiledImpl(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile) {
  ExecutionResult out;
  // AttrSet bounds schemas to 64 attributes library-wide, so a fixed scratch
  // buffer replaces the tree path's per-call vector; valid where
  // out.acquired has the bit set.
  CAQP_DCHECK(schema.num_attributes() <= 64);
  Value values[64];
  WalkCompiled<kTraced, kProfiled>(plan, schema, cost_model, source, trace,
                                   policy, profile, 0, -1, values, out);
  if constexpr (kTraced) trace->OnVerdict(out.verdict, out.cost);
  if constexpr (kProfiled) {
    profile->EndExecution(out.cost, out.acquisitions,
                          out.verdict3 == Truth::kUnknown);
  }
  return out;
}

// The inline ExecutePlan wrappers (executor.h) call these instantiations
// directly when there is no trace sink and instrumentation is
// runtime-disabled, so the disabled path is the uninstrumented executor
// plus one inline load and a branch in the caller (bench_obs_overhead
// holds it under 5% per tuple). The traced/profiled instantiations are
// implicit: only the Obs dispatchers below reach them.
template ExecutionResult ExecutePlanImpl<false, false>(
    const Plan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile);
template ExecutionResult ExecuteCompiledImpl<false, false>(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile);

}  // namespace internal

namespace {

void EmitExecObs(const ExecutionResult& out) {
  // One gate for the whole emission: per-tuple cost when disabled is a
  // single relaxed load + branch instead of one per counter site (the flat
  // executor's <5% obs-off budget in bench_obs_overhead is only ~1.5 ns).
  if (!obs::Enabled()) return;
  CAQP_OBS_COUNTER_INC("exec.tuples");
  CAQP_OBS_COUNTER_ADD("exec.acquisitions",
                       static_cast<uint64_t>(out.acquisitions));
  if (out.retries > 0) {
    CAQP_OBS_COUNTER_ADD("exec.retries", static_cast<uint64_t>(out.retries));
  }
  if (out.failed.Count() > 0) {
    CAQP_OBS_COUNTER_ADD("exec.failed_attributes",
                         static_cast<uint64_t>(out.failed.Count()));
  }
  if (out.aborted) {
    CAQP_OBS_COUNTER_INC("exec.aborts");
  } else if (out.verdict3 == Truth::kUnknown) {
    CAQP_OBS_COUNTER_INC("exec.unknown_verdicts");
  }
}

}  // namespace

namespace internal {
namespace {

// Single kTraced/kProfiled/plan-form dispatch point shared by both Obs entry
// paths (and any future ones): the 2x2 trace/profile fan-out is written once
// here instead of per plan form.
template <bool kTraced, bool kProfiled, typename PlanT>
ExecutionResult DispatchImpl(const PlanT& plan, const Schema& schema,
                             const AcquisitionCostModel& cost_model,
                             AcquisitionSource& source, TraceSink* trace,
                             const DegradationPolicy& policy,
                             ExecutionProfile* profile) {
  if constexpr (std::is_same_v<PlanT, Plan>) {
    return ExecutePlanImpl<kTraced, kProfiled>(plan, schema, cost_model,
                                               source, trace, policy, profile);
  } else {
    return ExecuteCompiledImpl<kTraced, kProfiled>(
        plan, schema, cost_model, source, trace, policy, profile);
  }
}

template <typename PlanT>
ExecutionResult ExecuteObs(const PlanT& plan, const Schema& schema,
                           const AcquisitionCostModel& cost_model,
                           AcquisitionSource& source, TraceSink* trace,
                           const DegradationPolicy& policy,
                           ExecutionProfile* profile) {
  // Reached when instrumentation is enabled or a trace sink is present. The
  // whole obs block — the request-tracing span, the counter emission, and
  // calibration profiling — still sits behind one relaxed load, so a
  // traced-but-disabled run pays no obs cost. Spans additionally require
  // the thread to be bound to a serve request scope (obs/span.h).
  if (!obs::Enabled()) {
    return trace ? DispatchImpl<true, false>(plan, schema, cost_model, source,
                                             trace, policy, nullptr)
                 : DispatchImpl<false, false>(plan, schema, cost_model, source,
                                              nullptr, policy, nullptr);
  }
  CAQP_OBS_SPAN(exec_span, "exec");
  ExecutionResult out;
  if (profile != nullptr) {
    out = trace ? DispatchImpl<true, true>(plan, schema, cost_model, source,
                                           trace, policy, profile)
                : DispatchImpl<false, true>(plan, schema, cost_model, source,
                                            nullptr, policy, profile);
  } else {
    out = trace ? DispatchImpl<true, false>(plan, schema, cost_model, source,
                                            trace, policy, nullptr)
                : DispatchImpl<false, false>(plan, schema, cost_model, source,
                                             nullptr, policy, nullptr);
  }
  EmitExecObs(out);
  return out;
}

}  // namespace

ExecutionResult ExecutePlanObs(const Plan& plan, const Schema& schema,
                               const AcquisitionCostModel& cost_model,
                               AcquisitionSource& source, TraceSink* trace,
                               const DegradationPolicy& policy,
                               ExecutionProfile* profile) {
  return ExecuteObs(plan, schema, cost_model, source, trace, policy, profile);
}

ExecutionResult ExecuteCompiledObs(const CompiledPlan& plan,
                                   const Schema& schema,
                                   const AcquisitionCostModel& cost_model,
                                   AcquisitionSource& source, TraceSink* trace,
                                   const DegradationPolicy& policy,
                                   ExecutionProfile* profile) {
  return ExecuteObs(plan, schema, cost_model, source, trace, policy, profile);
}

}  // namespace internal

BatchExecutionStats ExecuteBatch(const CompiledPlan& plan, const Dataset& data,
                                 std::span<const RowId> rows,
                                 const AcquisitionCostModel& cost_model,
                                 std::vector<uint8_t>* verdicts) {
  CAQP_OBS_SPAN(batch_span, "exec.batch");
  const Schema& schema = data.schema();
  // Runtime check in every build mode: the Value scratch below is 64-wide,
  // and a wider schema would corrupt it silently in release builds. Schema
  // construction enforces the same bound; this guards hand-built schemas.
  CAQP_CHECK(schema.num_attributes() <= 64);
  BatchExecutionStats stats;
  stats.tuples = rows.size();
  if (verdicts != nullptr) {
    verdicts->clear();
    verdicts->reserve(rows.size());
  }
  Value values[64];
  for (const RowId row : rows) {
    AttrSet acquired;
    double cost = 0.0;
    // Infallible, dedup'd read of attribute `a` for this row.
    auto acquire = [&](AttrId a) -> Value {
      if (!acquired.Contains(a)) {
        cost += cost_model.Cost(a, acquired);
        acquired.Insert(a);
        ++stats.total_acquisitions;
        values[a] = data.at(row, a);
      }
      return values[a];
    };

    uint32_t idx = 0;
    const CompiledPlan::Node* n = &plan.node(0);
    while (n->kind == CompiledPlan::Kind::kSplit) {
      Value v;
      if (n->first_acquisition()) {
        cost += cost_model.Cost(n->attr, acquired);
        acquired.Insert(n->attr);
        ++stats.total_acquisitions;
        v = values[n->attr] = data.at(row, n->attr);
      } else {
        v = values[n->attr];
      }
      idx = (v >= n->split_value) ? n->a : idx + 1;
      n = &plan.node(idx);
    }

    bool verdict = false;
    switch (n->kind) {
      case CompiledPlan::Kind::kVerdict:
        verdict = n->verdict();
        break;
      case CompiledPlan::Kind::kSequential:
        verdict = true;
        for (const Predicate& p : plan.sequence(*n)) {
          if (!p.Matches(acquire(p.attr))) {
            verdict = false;
            break;
          }
        }
        break;
      case CompiledPlan::Kind::kGeneric: {
        const Query& query = plan.residual_query(*n);
        RangeVec ranges = schema.FullRanges();
        for (size_t a = 0; a < schema.num_attributes(); ++a) {
          if (acquired.Contains(static_cast<AttrId>(a))) {
            ranges[a] = ValueRange{values[a], values[a]};
          }
        }
        Truth t = query.EvaluateOnRanges(ranges);
        for (const AttrId a : plan.acquire_order(*n)) {
          if (t != Truth::kUnknown) break;
          const Value v = acquire(a);
          ranges[a] = ValueRange{v, v};
          t = query.EvaluateOnRanges(ranges);
        }
        CAQP_CHECK(t != Truth::kUnknown);
        verdict = (t == Truth::kTrue);
        break;
      }
      case CompiledPlan::Kind::kSplit:
        CAQP_CHECK(false);
    }
    stats.total_cost += cost;
    stats.acquired = stats.acquired.Union(acquired);
    if (verdict) ++stats.matches;
    if (verdicts != nullptr) verdicts->push_back(verdict ? 1 : 0);
  }
  CAQP_OBS_COUNTER_ADD("exec.tuples", static_cast<uint64_t>(stats.tuples));
  CAQP_OBS_COUNTER_ADD("exec.acquisitions",
                       static_cast<uint64_t>(stats.total_acquisitions));
  return stats;
}

}  // namespace caqp
