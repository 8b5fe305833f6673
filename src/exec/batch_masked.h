// Mask-based AVX-512 chunk engine for ColumnarBatchExecutor.
//
// The portable selection-vector kernels (batch_executor.cc) pay one
// compacted position store per surviving row per plan node; that is the
// right shape for arbitrary RowId lists, but when the batch's rows are
// CONTIGUOUS the selection indirection can disappear entirely. This engine
// keeps every row in place and tracks, per plan node, a 32-row alive
// bitmask (__mmask32 per block of 32 chunk positions):
//
//  * splits compare a 32-value column slice against the split value in one
//    512-bit op and derive both children's masks with two mask ANDs — no
//    position stores at all;
//  * sequential leaves AND each conjunct's compare mask into the alive
//    mask, accumulating a per-row executed-step count in a u16 lane via a
//    masked add (the lane freezes when its row's mask bit drops, exactly
//    the scalar short-circuit);
//  * every row ends with one u16 cost-index store (leaf table base +
//    executed steps) and one verdict mask bit; the chunk epilogue expands
//    verdict masks to bytes and folds leaf_cost_[cost_idx[i]] in row order.
//
// All observable outputs (verdicts, matches, acquisitions, acquired set,
// bit-exact total_cost, ExecutionProfile counters) are identical to the
// selection path: counts come from mask popcounts, and the cost fold reads
// the same exact-cost table in the same row order. The engine evaluates a
// predicate lane even for rows that already failed an earlier conjunct —
// loads are side-effect free, and the counters are derived from masks, so
// the scalar short-circuit *semantics* are preserved while the work is
// branch-free.
//
// The engine has no generic-leaf fallback: a plan with a residual-query
// leaf is never masked-eligible (its rows resume on the per-row walk, which
// only the selection path feeds).
//
// This header is plain C++ (no intrinsics) so the executor can include it
// unconditionally; the implementation lives in batch_masked_avx512.cc,
// which CMake compiles with AVX-512 flags only when the toolchain supports
// them (CAQP_HAVE_AVX512). Callers must check MaskedChunkAvailable() — a
// cached runtime CPUID probe — before invoking RunChunkMasked.

#ifndef CAQP_EXEC_BATCH_MASKED_H_
#define CAQP_EXEC_BATCH_MASKED_H_

#include <cstdint>

#include "core/dataset.h"
#include "exec/exec_profile.h"
#include "exec/executor.h"
#include "plan/batch_plan.h"

namespace caqp::internal {

/// Everything one masked chunk run needs, wired up by ColumnarBatchExecutor.
/// All pointers are borrowed; scratch buffers must hold at least
/// `blocks` uint32 words (masks) resp. `32 * blocks` elements (per-row).
struct MaskedChunkArgs {
  const BatchPlanView* view = nullptr;
  const Dataset* data = nullptr;
  /// Exact-cost table + per-slot offsets (see batch_executor.h). The table
  /// must have <= 65535 entries so a cost index fits a u16 lane — the
  /// executor checks this once at construction.
  const double* leaf_cost = nullptr;
  const uint32_t* leaf_cost_offset = nullptr;

  /// Scratch: per-slot alive masks (view->num_slots() * blocks words,
  /// slot-major), one working copy for leaf steps, per-row executed-step
  /// lanes, per-row cost indices, and the final verdict masks.
  uint32_t* node_masks = nullptr;
  uint32_t* alive_scratch = nullptr;
  uint16_t* exec_scratch = nullptr;
  uint16_t* cost_idx = nullptr;
  uint32_t* verdict_masks = nullptr;

  /// Chunk geometry: rows [row_base, row_base + n) of the dataset, n <= 32 *
  /// blocks. The caller guarantees the chunk's RowIds are consecutive.
  RowId row_base = 0;
  uint32_t n = 0;
  uint32_t blocks = 0;

  uint8_t* verdicts = nullptr;          ///< optional, chunk-local, n bytes
  ExecutionProfile* profile = nullptr;  ///< optional
  BatchExecutionStats* stats = nullptr;
  /// Optional per-op row tallies (BatchPlanView::kNumOps entries): each
  /// slot adds its alive-row count under its op, matching the selection
  /// path's kernel_rows_ accounting (see batch_executor.h).
  uint64_t* kernel_rows = nullptr;
};

/// True iff the running CPU has the AVX-512 subset the engine uses
/// (F/BW/DQ/VL). Always false when the library was built without
/// CAQP_HAVE_AVX512. Cached after the first call; thread-safe.
bool MaskedChunkAvailable();

/// Runs one chunk through the plan. Preconditions: MaskedChunkAvailable(),
/// consecutive rows, a <= 65535-entry cost table, and no generic leaf.
void RunChunkMasked(const MaskedChunkArgs& args);

}  // namespace caqp::internal

#endif  // CAQP_EXEC_BATCH_MASKED_H_
