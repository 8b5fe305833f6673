// Columnar batch execution of a CompiledPlan — the batch-at-a-time twin of
// per-row ExecutePlan (exec/executor.h), which is its reference oracle.
//
// Instead of walking one root→leaf path per tuple, the executor routes a
// whole chunk of rows through the plan with selection vectors: each plan
// node owns a buffer of chunk-local row positions, split nodes repartition
// their selection against a contiguous Dataset column slice in one
// branch-light loop (both outputs written each iteration, counts advanced by
// the comparison result), and sequential leaves drain their selection with
// an in-place filter per conjunct — rows that fail a predicate simply stop
// being copied forward, which *is* the per-row short-circuit. Because a
// plan is a tree in BFS (level-major) slot order, one forward sweep over
// BatchPlanView slots visits every parent before its children.
//
// What makes the batch path fast is hoisting, twice over:
//  * The acquired-set at any node is static (plan/batch_plan.h), so every
//    marginal AcquisitionCostModel::Cost() — a virtual call per acquisition
//    in the per-row walk — is precomputed once per plan at construction.
//  * A row's total cost is fully determined by (leaf reached, number of
//    leaf steps executed): every such row adds the same static marginals in
//    the same order. The constructor folds those additions once into an
//    exact-cost table, so the row loops never touch a cost accumulator —
//    each row stores one precomputed double at its leaf, and Execute sums
//    them in row order.
//
// Equivalence contract (enforced by tests/batch_executor_test.cc):
// Execute() is bit-identical to per-row ExecutePlan over the same rows (a
// RowSource set to each row in turn, costs summed in row order) — verdict
// vector, match count, acquisition count, acquired-attribute union, and
// total_cost as an exact double (the cost table replays the walk's
// addition sequence, and the final sum runs in row order, so every
// intermediate double matches). With a profile attached, the per-node /
// per-attribute counters match a per-tuple profiled ExecutePlan run counter
// for counter; realized_cost matches bitwise when the profile starts fresh
// (EndBatch adds one row-order total per Execute call).
//
// Dispatch is a switch over BatchPlanView::Op: the hot shapes
// (first-acquisition vs repeat splits, sequential arities 1..4) get their
// own specialized kernels, and kSeqN loops. kGeneric — a residual-query
// leaf, which only the exhaustive planner emits, for a query that is not a
// conjunction — has no kernel: three-valued range evaluation is inherently
// per-row, so in both modes every row that reaches one leaves the selection
// and the per-row walk (internal::WalkCompiled) finishes it from the leaf's
// static entry state — the attributes acquired on the way there, their
// column values, and the leaf's entry cost (its table entry 0). The walk
// then adds Cost(a, acquired) for each new acquisition: the table's
// doubles, in the table's order.
//
// When the batch's RowIds are consecutive, the CPU has AVX-512 (F/BW/DQ/VL,
// probed at runtime), the cost table fits 16-bit indices, and the plan has
// no generic leaf, chunks are instead routed through the mask-based engine
// in exec/batch_masked.h: per plan node a 32-row alive bitmask replaces the
// selection vector, splits become one 512-bit compare plus two mask ANDs
// per block, and leaf costs collapse to a single u16 table-index store per
// row. Same observable results, bit for bit — the selection kernels remain
// the universal fallback (arbitrary row lists, huge plans, generic leaves,
// older CPUs).
//
// Fault mode (BatchExecOptions::faults): acquisition becomes fallible under
// the row-keyed fault model of fault/fault.h. The caller passes the
// FaultRealization of the very row span it executes: one attempt-0 clean bit
// per (row, attribute), drawn once (a dist shard builds it over its rows at
// construction). Per 64 chunk rows, the executor ANDs the clean words of
// every attribute the plan can acquire and routes the chunk in two. A row
// whose bits are all set behaves exactly like a fault-free row — every
// acquisition it can make succeeds at attempt 0, at the normal cost — so it
// takes the fault-free sweep: the same selection kernels, exact-cost tables
// and profile counters as outside fault mode. The other rows take the
// fault-mode sweep and carry an exact running cost from the per-row walk's
// starting 0.0. At every new acquisition (a first-acquisition split, an
// is_new leaf step) a row whose bit is set adds the static marginal,
// exactly the walk's addition. A clear bit only means "take the exact
// path": the row redraws its attempts through FaultInjector::At(). If an
// attempt within the policy succeeds — a retry, or a cost spike — the row
// adds the walk's attempt-loop charges, tallies its retries, and routes on:
// the value and every counter are a clean row's. A failing acquisition
// (retries exhausted, a stuck sensor, or any failure under UnknownVerdict /
// Abort) takes the row out of the selection, and the per-row walk finishes
// it, resumed at that node — or, in a sequential leaf, at that step — with
// its static entry state and its running cost, reading through a
// FaultyAcquisitionSource over a RowSource, both set to the row. Both
// sweeps store costs and verdicts by chunk position, so the row-order cost
// fold is unchanged. Every outcome on the way was what the per-row oracle
// draws, so each row's ExecutionResult and profile counters are the
// oracle's: ExecutePlan over FaultyAcquisitionSource with SetRow(row).
// Verdict bytes then carry Truth values (kUnknown = 2), BatchExecutionStats
// fills its fault totals, and the exec.* counters are added once per
// Execute with the per-row path's totals. So is fault.injected, except for
// the resumed rows' failures, which their source counts as they happen.
// Fault mode always runs the selection kernels: the masked engine stays
// fault-free, and the fault-free kernels compile exactly as before (kFaulty
// is a template parameter; a sweep only takes its root selection as an
// argument).
//
// Thread safety: one ColumnarBatchExecutor is single-threaded scratch
// (selection buffers are reused across chunks and calls); build one per
// thread over the same shared CompiledPlan. The plan, dataset, and cost
// model must outlive the executor.

#ifndef CAQP_EXEC_BATCH_EXECUTOR_H_
#define CAQP_EXEC_BATCH_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "exec/exec_profile.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "opt/cost_model.h"
#include "plan/batch_plan.h"
#include "plan/compiled_plan.h"

namespace caqp {

struct BatchExecOptions {
  /// Rows are driven through the plan in morsels of this many rows
  /// (bounding selection-buffer footprint and keeping column slices hot in
  /// cache). 0 means "as large as possible"; either way chunks are capped
  /// at 64Ki rows so chunk-local positions fit in 16 bits. Chunking is
  /// transparent: results are identical for every chunk size.
  size_t chunk_size = 1024;
  /// Optional calibration profile; counters are recorded under CompiledPlan
  /// node indices exactly like the per-tuple profiled path. Ignored while
  /// obs::Enabled() is false, as in ExecutePlan.
  ExecutionProfile* profile = nullptr;
  /// Fault mode (see file comment) when non-null: the realization drawn
  /// over exactly the span Execute receives (same data() and size();
  /// Execute aborts otherwise). Must outlive Execute.
  const FaultRealization* faults = nullptr;
  /// How fault mode degrades failed acquisitions (ignored without faults).
  DegradationPolicy policy{};
};

class ColumnarBatchExecutor {
 public:
  /// Builds the level-decomposed view and precomputes the exact-cost
  /// tables. `plan`, `data`, and `cost_model` must outlive the executor.
  /// Aborts if the schema exceeds kMaxAttributes (the AttrSet / value-scratch
  /// bound, checked here at runtime in all build modes).
  ColumnarBatchExecutor(const CompiledPlan& plan, const Dataset& data,
                        const AcquisitionCostModel& cost_model);

  ColumnarBatchExecutor(const ColumnarBatchExecutor&) = delete;
  ColumnarBatchExecutor& operator=(const ColumnarBatchExecutor&) = delete;

  /// Executes the plan over `rows` (infallible, dedup'd acquisition straight
  /// from the dataset, unless options.faults selects fault mode). If
  /// `verdicts` is non-null it is resized to rows.size() with per-row Truth
  /// bytes in row order (1/0 without faults; passing nullptr skips the
  /// verdict stores entirely). See the file comment for the equivalence
  /// contract with per-row ExecutePlan, in both modes.
  BatchExecutionStats Execute(std::span<const RowId> rows,
                              std::vector<uint8_t>* verdicts = nullptr,
                              const BatchExecOptions& options = {});

  const BatchPlanView& view() const { return view_; }

 private:
  /// Chunk-local row position. 16-bit on purpose: selection vectors are the
  /// densest traffic in the kernels, and halving them roughly halves the
  /// partition bandwidth. Chunks are capped at kMaxChunk rows to match.
  using SelIdx = uint16_t;
  static constexpr size_t kMaxChunk = 65536;

  /// Sizes the selection scratch for `capacity`-row chunks, and the
  /// fault-mode buffers (div_scratch_, clean_sel_, fault_sel_) only when
  /// `faulty`.
  void EnsureScratch(size_t capacity, bool faulty);

  template <bool kProfiled, bool kVerdicts, bool kFaulty>
  void RunChunk(const RowId* rows, uint32_t n, uint8_t* verdicts,
                ExecutionProfile* profile, BatchExecutionStats* stats);

  /// One forward sweep over the plan's slots for the `root_n` chunk
  /// positions in `root_sel`.
  template <bool kProfiled, bool kVerdicts, bool kFaulty>
  void Sweep(const SelIdx* root_sel, uint32_t root_n, const RowId* rows,
             uint8_t* verdicts, ExecutionProfile* profile,
             BatchExecutionStats* stats);

  /// Picks the RunChunk instantiation for the profile / verdict pointers.
  template <bool kFaulty>
  void RunSelectionChunk(const RowId* rows, uint32_t n, uint8_t* verdicts,
                         ExecutionProfile* profile,
                         BatchExecutionStats* stats);

  /// Fault mode: splits the chunk's `n` positions into clean_sel_ (clean
  /// on every attribute the plan can acquire) and fault_sel_ (the rest);
  /// returns how many are clean.
  uint32_t Route(uint32_t n);

  /// Fault mode, for a row whose attempt-0 draw for `attr` is not clean:
  /// if an attempt within the policy succeeds (or the draw was only a cost
  /// spike), adds the per-row walk's attempt-loop charges for
  /// `marginal_cost` to the row's running cost, tallies its failed
  /// attempts, and returns true — the row read its value and routes on.
  /// False when the acquisition fails; nothing is charged then.
  bool ChargeAttempts(RowId row, AttrId attr, double marginal_cost,
                      SelIdx pos, BatchExecutionStats* stats);

  /// Queues the `n` chunk positions at `pos` for a per-row resume at
  /// `slot` — at node entry (step -1) or, in a sequential leaf, at
  /// acquisition step `step`. Their row_cost_ entries hold their cost so far.
  void Divert(uint32_t slot, int32_t step, const SelIdx* pos, uint32_t n);

  /// Finishes every diverted row of the chunk on the per-row walk, reading
  /// through `source` — `base` itself without faults, a
  /// FaultyAcquisitionSource over `base` with them; both are set to each
  /// row — and folds its result into the chunk outputs.
  template <bool kProfiled, typename Source>
  void ResumeDiverted(RowSource& base, Source& source, const RowId* rows,
                      uint8_t* verdicts, ExecutionProfile* profile,
                      BatchExecutionStats* stats);

  template <bool kFirstAcq, bool kProfiled, bool kFaulty>
  void SplitKernel(const BatchPlanView::Node& node, uint32_t slot,
                   const uint16_t* sel_in, const RowId* rows,
                   ExecutionProfile* profile, BatchExecutionStats* stats);

  template <int kArity, bool kProfiled, bool kVerdicts, bool kFaulty>
  void SeqKernel(const BatchPlanView::Node& node, uint32_t slot,
                 const uint16_t* sel_in, const RowId* rows, uint8_t* verdicts,
                 ExecutionProfile* profile, BatchExecutionStats* stats);

  const CompiledPlan& plan_;
  const Dataset& data_;
  const AcquisitionCostModel& cost_model_;
  BatchPlanView view_;

  /// Exact-cost tables (see file comment). leaf_cost_ holds, per leaf slot,
  /// num_steps + 1 doubles: entry k is the exact total cost of a row that
  /// reached this leaf and executed k acquisition steps, folded in the
  /// per-row walk's addition order (root-path first-acquisition splits,
  /// then leaf steps; non-charging steps copy the previous entry — no +0.0
  /// rounding hazards). leaf_cost_offset_[slot] indexes the table; ~0u for
  /// splits.
  std::vector<double> leaf_cost_;
  std::vector<uint32_t> leaf_cost_offset_;
  /// The static marginals themselves, per kSplitFirst slot and per is_new
  /// leaf step (indexed like BatchPlanView steps): fault mode adds them
  /// into each row's running cost (row_cost_) as the row acquires, in the
  /// per-row walk's order.
  std::vector<double> split_cost_;
  std::vector<double> step_cost_;

  /// State of the current Execute call: the fault realization and policy,
  /// the chunk's offset into the realization's rows, and the chunk's rows
  /// awaiting a per-row resume (slot, leaf step or -1, chunk position) —
  /// generic-leaf rows in both modes, failed acquisitions in fault mode.
  const FaultRealization* faults_ = nullptr;
  /// Failed attempts of resumed rows, which their source already added to
  /// the fault.injected counter.
  size_t resumed_faults_ = 0;
  DegradationPolicy policy_{};
  int max_attempts_ = 1;  ///< attempts per acquisition under policy_
  size_t chunk_off_ = 0;
  struct Diverted {
    uint32_t slot;
    int32_t step;
    SelIdx pos;
  };
  std::vector<Diverted> diverted_;
  std::vector<SelIdx> div_scratch_;  ///< one kernel's diverted positions
  std::vector<SelIdx> clean_sel_;    ///< Route's outputs: the root
  std::vector<SelIdx> fault_sel_;    ///< selections of the two sweeps

  /// Selection scratch, reused across chunks and Execute calls. sel_[slot]
  /// holds chunk-local positions; iota_ is the persistent identity
  /// selection a fault-free chunk's root reads (never mutated, filled
  /// once); row_cost_[pos] receives each row's exact cost at its leaf.
  size_t chunk_capacity_ = 0;
  std::vector<std::vector<SelIdx>> sel_;
  std::vector<uint32_t> sel_n_;
  std::vector<SelIdx> iota_;
  /// Sequential leaves ping-pong between their slot buffer and this shared
  /// scratch so every filter step reads and writes *disjoint* buffers —
  /// which is what lets the kernels declare their pointers __restrict and
  /// keeps the compiler from serializing loads against the compaction
  /// stores (SelIdx aliases SelIdx).
  std::vector<SelIdx> seq_scratch_;
  std::vector<double> row_cost_;

  /// Per-kernel telemetry scratch, accumulated per Execute call (one add
  /// per active slot per chunk — noise next to the kernels) and flushed to
  /// the obs counters exec.batch.kernel_rows.<op> /
  /// exec.batch.{masked,selection}_chunks only when obs::Enabled(), so the
  /// disabled path stays under the bench_obs_overhead bar.
  std::array<uint64_t, BatchPlanView::kNumOps> kernel_rows_{};
  uint64_t masked_chunks_ = 0;
  uint64_t masked_rows_ = 0;
  uint64_t selection_chunks_ = 0;

  /// Masked-engine eligibility (CPU probe && cost table fits u16 indices &&
  /// no generic leaf) and its scratch: per-slot alive masks, leaf working
  /// masks, per-row executed-step lanes and cost indices, and final verdict
  /// masks. See exec/batch_masked.h.
  bool masked_eligible_ = false;
  std::vector<uint32_t> mask_slots_;
  std::vector<uint32_t> mask_alive_;
  std::vector<uint32_t> mask_verdict_;
  std::vector<uint16_t> mask_exec_;
  std::vector<uint16_t> mask_cost_idx_;
};

/// One-shot convenience wrapper: builds a ColumnarBatchExecutor and runs a
/// single Execute. Callers with a hot loop (benches, shards) should build
/// the executor once and reuse it — construction does one virtual cost-model
/// call per plan node/step plus scratch allocation.
BatchExecutionStats ExecuteBatchColumnar(
    const CompiledPlan& plan, const Dataset& data, std::span<const RowId> rows,
    const AcquisitionCostModel& cost_model,
    std::vector<uint8_t>* verdicts = nullptr,
    const BatchExecOptions& options = {});

}  // namespace caqp

#endif  // CAQP_EXEC_BATCH_EXECUTOR_H_
