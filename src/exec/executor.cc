#include "exec/executor.h"

#include "exec/compiled_walk.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace caqp {

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

// Root entry of the flat walk (exec/compiled_walk.h). Templating on kTraced
// lets the no-trace instantiation drop every event hook at compile time:
// ExecutePlan with a null sink runs the exact same code as an
// uninstrumented executor (bench/bench_obs_overhead.cc measures the
// residual dispatch cost). kProfiled does the same for the calibration
// counter hooks (exec/exec_profile.h). aligned(64): this is the library's
// hottest loop, and cache-line-aligned entry keeps its per-tuple cost
// stable across otherwise-unrelated link-order changes — the overhead bench
// compares it against an equally aligned mirror at ns/tuple resolution.
template <bool kTraced, bool kProfiled>
__attribute__((aligned(64))) ExecutionResult ExecuteCompiledImpl(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile) {
  ExecutionResult out;
  // Schemas hold at most kMaxAttributes attributes, so a fixed scratch
  // buffer holds the acquired values; valid where out.acquired has the bit
  // set.
  CAQP_DCHECK(schema.num_attributes() <= kMaxAttributes);
  Value values[kMaxAttributes];
  WalkCompiled<kTraced, kProfiled>(plan, schema, cost_model, source, trace,
                                   policy, profile, 0, -1, values, out);
  if constexpr (kTraced) trace->OnVerdict(out.verdict, out.cost);
  if constexpr (kProfiled) {
    profile->EndExecution(out.cost, out.acquisitions,
                          out.verdict3 == Truth::kUnknown);
  }
  return out;
}

// The inline ExecutePlan wrapper (executor.h) calls this instantiation
// directly when there is no trace sink and instrumentation is
// runtime-disabled, so the disabled path is the uninstrumented executor
// plus one inline load and a branch in the caller (bench_obs_overhead
// holds it under 5% per tuple). The traced/profiled instantiations are
// implicit: only ExecuteCompiledObs below reaches them.
template ExecutionResult ExecuteCompiledImpl<false, false>(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile);

ExecutionResult ExecuteCompiledObs(const CompiledPlan& plan,
                                   const Schema& schema,
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
    return trace ? ExecuteCompiledImpl<true, false>(plan, schema, cost_model,
                                                    source, trace, policy,
                                                    nullptr)
                 : ExecuteCompiledImpl<false, false>(plan, schema, cost_model,
                                                     source, nullptr, policy,
                                                     nullptr);
  }
  CAQP_OBS_SPAN(exec_span, "exec");
  ExecutionResult out;
  if (profile != nullptr) {
    out = trace ? ExecuteCompiledImpl<true, true>(plan, schema, cost_model,
                                                  source, trace, policy,
                                                  profile)
                : ExecuteCompiledImpl<false, true>(plan, schema, cost_model,
                                                   source, nullptr, policy,
                                                   profile);
  } else {
    out = trace ? ExecuteCompiledImpl<true, false>(plan, schema, cost_model,
                                                   source, trace, policy,
                                                   nullptr)
                : ExecuteCompiledImpl<false, false>(plan, schema, cost_model,
                                                    source, nullptr, policy,
                                                    nullptr);
  }
  EmitExecObs(out);
  return out;
}

}  // namespace internal

}  // namespace caqp
