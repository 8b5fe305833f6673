// Plan execution engine (the "simple traversal of a binary tree" that runs
// on motes, paper Section 2.5). The executor is deliberately tiny and
// allocation-free on the hot path: current sensor hardware is the reason the
// paper computes plans offline, so execution must stay cheap.
//
// Values are pulled through an AcquisitionSource, which lets the same engine
// run over a recorded dataset, a live simulated sensor, or (in tests) a
// source that records the acquisition order.
//
// Acquisition is fallible: real motes brown out, sensors stick, and radios
// time out (paper Section 2.4), so Acquire returns an AcquiredValue that may
// report failure. How the executor degrades is controlled by a
// DegradationPolicy:
//
//  * kUnknownVerdict (default) -- a missing attribute propagates Unknown
//    through the plan tree, *unless* the remaining conjuncts already decide
//    the verdict (three-valued logic: a later false conjunct still yields a
//    defined kFalse).
//  * kRetry -- each failed acquisition is retried up to max_attempts total
//    attempts (each attempt is charged; retries at retry_cost_multiplier x
//    the marginal cost); exhausted retries degrade like kUnknownVerdict.
//  * kAbort -- the first failed acquisition aborts execution; the result
//    carries aborted=true and an Unknown verdict.

#ifndef CAQP_EXEC_EXECUTOR_H_
#define CAQP_EXEC_EXECUTOR_H_

#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/schema.h"
#include "exec/exec_profile.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "opt/cost_model.h"
#include "plan/compiled_plan.h"
#include "prob/subproblem.h"

namespace caqp {

/// Outcome of one acquisition attempt. Implicitly constructible from a
/// Value so infallible sources keep writing `return tuple_[attr];`.
struct AcquiredValue {
  Value value = 0;
  bool ok = true;
  /// Permanent (stuck-sensor) failure: retrying cannot help.
  bool permanent = false;
  /// Latency/cost spike factor for this attempt; the executor scales the
  /// marginal acquisition cost by it.
  double cost_multiplier = 1.0;

  AcquiredValue(Value v) : value(v) {}  // NOLINT: implicit by design
  static AcquiredValue Failure(bool permanent_failure = false) {
    AcquiredValue out(Value{0});
    out.ok = false;
    out.permanent = permanent_failure;
    return out;
  }
};

/// Supplies attribute values for the tuple currently being evaluated.
/// Acquire() is called at most once per attribute per tuple when every
/// attempt succeeds; under kRetry it may be called up to max_attempts times
/// for a failing attribute.
class AcquisitionSource {
 public:
  virtual ~AcquisitionSource() = default;
  virtual AcquiredValue Acquire(AttrId attr) = 0;
};

/// Source backed by a fully materialized tuple.
class TupleSource : public AcquisitionSource {
 public:
  explicit TupleSource(const Tuple& t) : tuple_(t) {}
  AcquiredValue Acquire(AttrId attr) override {
    CAQP_DCHECK(attr < tuple_.size());
    return tuple_[attr];
  }

 private:
  const Tuple& tuple_;
};

/// Source backed by one dataset row at a time: SetRow picks the row, and
/// every acquisition reads its value straight out of the dataset (point a
/// row-keyed FaultyAcquisitionSource at the same row with its SetRow).
class RowSource : public AcquisitionSource {
 public:
  explicit RowSource(const Dataset& data) : data_(data) {}
  void SetRow(RowId row) { row_ = row; }
  AcquiredValue Acquire(AttrId attr) override { return data_.at(row_, attr); }

 private:
  const Dataset& data_;
  RowId row_ = 0;
};

/// How ExecutePlan degrades when an acquisition fails (see file comment).
struct DegradationPolicy {
  enum class Mode : uint8_t { kUnknownVerdict = 0, kRetry = 1, kAbort = 2 };

  Mode mode = Mode::kUnknownVerdict;
  /// Total attempts per acquisition, including the first (kRetry only).
  int max_attempts = 1;
  /// Marginal-cost factor charged for each attempt after the first.
  double retry_cost_multiplier = 1.0;

  static DegradationPolicy UnknownVerdict() { return {}; }
  static DegradationPolicy Retry(int max_attempts,
                                 double retry_cost_multiplier = 1.0) {
    DegradationPolicy p;
    p.mode = Mode::kRetry;
    p.max_attempts = max_attempts;
    p.retry_cost_multiplier = retry_cost_multiplier;
    return p;
  }
  static DegradationPolicy Abort() {
    DegradationPolicy p;
    p.mode = Mode::kAbort;
    return p;
  }
};

/// Outcome of executing one plan over one tuple.
struct ExecutionResult {
  bool verdict = false;            ///< verdict3 == kTrue (two-valued view)
  Truth verdict3 = Truth::kFalse;  ///< tri-state truth of the WHERE clause
  bool aborted = false;            ///< kAbort policy hit a failure
  double cost = 0.0;               ///< total acquisition cost charged
  int acquisitions = 0;            ///< distinct attributes acquired
  int retries = 0;                 ///< attempts beyond the first, summed
  AttrSet acquired;                ///< attributes successfully acquired
  AttrSet failed;                  ///< attributes that never yielded a value

  /// True iff execution completed with a defined (non-Unknown) verdict.
  bool defined() const { return !aborted && verdict3 != Truth::kUnknown; }
};

namespace internal {
// Out-of-line halves of the inline ExecutePlan wrapper below. The Impl
// template (defined and explicitly instantiated for kTraced=kProfiled=false
// in executor.cc) is the executor itself; calling Impl<false, false>
// straight from the inline wrapper keeps the common disabled-instrumentation
// case at one call, exactly like an uninstrumented build. Obs wraps
// execution in the "exec" span and counter emission (and handles the
// obs-disabled-but-traced case). kProfiled adds the per-node
// eval/pass/unknown counter hooks for calibration (exec/exec_profile.h);
// like tracing, the hooks vanish at compile time in the <*, false>
// instantiations.
template <bool kTraced, bool kProfiled>
ExecutionResult ExecuteCompiledImpl(const CompiledPlan& plan,
                                    const Schema& schema,
                                    const AcquisitionCostModel& cost_model,
                                    AcquisitionSource& source,
                                    TraceSink* trace,
                                    const DegradationPolicy& policy,
                                    ExecutionProfile* profile);
extern template ExecutionResult ExecuteCompiledImpl<false, false>(
    const CompiledPlan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    TraceSink* trace, const DegradationPolicy& policy,
    ExecutionProfile* profile);

ExecutionResult ExecuteCompiledObs(const CompiledPlan& plan,
                                   const Schema& schema,
                                   const AcquisitionCostModel& cost_model,
                                   AcquisitionSource& source, TraceSink* trace,
                                   const DegradationPolicy& policy,
                                   ExecutionProfile* profile);
}  // namespace internal

/// Evaluates `plan` for one tuple, acquiring attributes lazily from `source`
/// and charging `cost_model` for each acquisition attempt. Failed
/// acquisitions degrade per `policy`. If `trace` is non-null it receives
/// acquisition / branch / verdict events in traversal order (obs/trace.h);
/// the default null sink costs one untaken branch per event site. If
/// `profile` is non-null *and* instrumentation is runtime-enabled, per-node
/// eval/pass/unknown counters and realized cost are recorded into it
/// (exec/exec_profile.h; nodes are addressed by flat index). Profiling rides
/// the obs switch on purpose: with obs disabled the profile is ignored and
/// the call costs exactly what an unprofiled call costs.
///
/// The walk iterates over the CompiledPlan node array: no recursion, no
/// pointer chasing, no per-tuple allocation, and no acquired-set lookups on
/// the split walk (the compiler precomputed the first-acquisition flags).
/// This is what motes, the serve layer and EmpiricalPlanCost run; planners'
/// Plan trees compile once (CompiledPlan::Compile) before they execute.
///
/// Inline so the common case — no per-tuple trace, instrumentation
/// runtime-disabled — dispatches straight to the uninstrumented executor
/// for one relaxed load and a branch in the caller. This is a per-tuple
/// call; an extra out-of-line gating frame here costs measurable percent
/// (bench_obs_overhead holds the disabled path under 5%).
inline ExecutionResult ExecutePlan(const CompiledPlan& plan,
                                   const Schema& schema,
                                   const AcquisitionCostModel& cost_model,
                                   AcquisitionSource& source,
                                   TraceSink* trace = nullptr,
                                   const DegradationPolicy& policy = {},
                                   ExecutionProfile* profile = nullptr) {
  if (trace == nullptr && !obs::Enabled()) {
    return internal::ExecuteCompiledImpl<false, false>(
        plan, schema, cost_model, source, nullptr, policy, nullptr);
  }
  return internal::ExecuteCompiledObs(plan, schema, cost_model, source, trace,
                                      policy, profile);
}

/// Aggregate outcome of ExecuteBatch / ColumnarBatchExecutor::Execute.
struct BatchExecutionStats {
  size_t tuples = 0;
  size_t matches = 0;            ///< verdicts that came back true
  size_t total_acquisitions = 0;
  double total_cost = 0.0;
  /// Union of the attributes acquired for any row — what a dist shard
  /// reports in its partial ExecutionResult (merge semantics: union).
  AttrSet acquired;

  // Fault-mode totals (ColumnarBatchExecutor with BatchExecOptions::faults;
  // zero on the infallible paths): sums of the per-row ExecutionResult
  // fields, and the union of their failed sets.
  size_t total_retries = 0;
  size_t failed_attributes = 0;  ///< sum of per-row failed-set sizes
  AttrSet failed;
  size_t aborted = 0;  ///< rows the kAbort policy stopped
  size_t unknown = 0;  ///< rows with a kUnknown verdict (aborted included)
  size_t faults_injected = 0;  ///< failed acquisition attempts
};

/// Executes the plan over the given dataset rows with infallible, dedup'd
/// acquisition (ground truth straight from the dataset) and reused scratch
/// across tuples — the scalar row-at-a-time loop, kept as the differential
/// oracle for the columnar path (exec/batch_executor.h). If `verdicts` is
/// non-null it is resized to rows.size() with 1/0 per-row verdicts
/// (uint8_t, not vector<bool>: byte stores keep the batch paths free of
/// bit-proxy read-modify-write).
BatchExecutionStats ExecuteBatch(const CompiledPlan& plan, const Dataset& data,
                                 std::span<const RowId> rows,
                                 const AcquisitionCostModel& cost_model,
                                 std::vector<uint8_t>* verdicts = nullptr);

}  // namespace caqp

#endif  // CAQP_EXEC_EXECUTOR_H_
