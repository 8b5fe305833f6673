// AVX-512 mask-based chunk engine — see batch_masked.h for the contract
// and batch_executor.h for the equivalence argument. This translation unit
// is the only one compiled with AVX-512 flags; callers gate on
// MaskedChunkAvailable() so the vector code never executes on CPUs without
// the F/BW/DQ/VL subsets.

#include "exec/batch_masked.h"

#include <immintrin.h>

#include "core/predicate.h"

namespace caqp::internal {

bool MaskedChunkAvailable() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512bw") &&
                         __builtin_cpu_supports("avx512dq") &&
                         __builtin_cpu_supports("avx512vl");
  return ok;
}

namespace {

inline uint64_t Pop(uint32_t m) {
  return static_cast<uint64_t>(__builtin_popcount(m));
}

/// Split: one 512-bit compare per 32-row block, two mask ANDs for the
/// children. Children of empty blocks still get zero masks stored — the
/// mask arrays are reused across chunks and would otherwise go stale.
void SplitMasked(const MaskedChunkArgs& a, const BatchPlanView::Node& node,
                 const uint32_t* M, bool first_acq) {
  uint32_t* lt = a.node_masks + size_t{node.lt} * a.blocks;
  uint32_t* ge = a.node_masks + size_t{node.ge} * a.blocks;
  const Value* col = a.data->column(node.attr).data() + a.row_base;
  const __m512i sv =
      _mm512_set1_epi16(static_cast<short>(node.split_value));
  uint64_t cnt = 0, ng = 0;
  for (uint32_t b = 0; b < a.blocks; ++b) {
    const __mmask32 m = M[b];
    if (m == 0) {
      lt[b] = 0;
      ge[b] = 0;
      continue;
    }
    const __m512i v = _mm512_maskz_loadu_epi16(m, col + 32u * b);
    const uint32_t c = _mm512_cmp_epu16_mask(v, sv, _MM_CMPINT_NLT);  // >=
    const uint32_t gm = m & c;
    lt[b] = m & ~c;
    ge[b] = gm;
    cnt += Pop(m);
    ng += Pop(gm);
  }
  if (cnt == 0) return;
  if (first_acq) {
    a.stats->total_acquisitions += cnt;
    a.stats->acquired.Insert(node.attr);
  }
  if (a.profile != nullptr) {
    a.profile->NodeEvalN(node.plan_index, cnt);
    a.profile->PredEvalN(node.attr, cnt, ng);
    a.profile->NodePassN(node.plan_index, ng);
  }
}

/// Sequential leaf: per step, AND the conjunct's compare mask into the
/// alive masks while bumping each still-alive row's executed-step lane —
/// the lane freezes exactly when the scalar walk would have stopped, so
/// cost index = table base + executed reproduces the scalar charge
/// sequence. Rows that already failed still occupy (masked-off) lanes;
/// their loads are suppressed by the mask and their counters come from
/// popcounts, so observable semantics match the short-circuit exactly.
void SeqMasked(const MaskedChunkArgs& a, const BatchPlanView::Node& node,
               uint32_t slot, const uint32_t* M, uint64_t entered) {
  const auto steps = a.view->steps(node);
  if (a.profile != nullptr) a.profile->NodeEvalN(node.plan_index, entered);

  uint32_t* A = a.alive_scratch;
  uint16_t* exec = a.exec_scratch;
  const __m512i zero = _mm512_setzero_si512();
  for (uint32_t b = 0; b < a.blocks; ++b) {
    A[b] = M[b];
    if (M[b] != 0) {
      _mm512_mask_storeu_epi16(exec + 32u * b, M[b], zero);
    }
  }

  const __m512i one = _mm512_set1_epi16(1);
  uint64_t live = entered;
  for (uint32_t k = 0; k < node.num_steps && live > 0; ++k) {
    const BatchPlanView::AcqStep& st = steps[k];
    const Value* col = a.data->column(st.attr).data() + a.row_base;
    const __m512i lo = _mm512_set1_epi16(static_cast<short>(st.pred.lo));
    const __m512i hi = _mm512_set1_epi16(static_cast<short>(st.pred.hi));
    const uint32_t neg = st.pred.negated ? 0xFFFFFFFFu : 0u;
    uint64_t pass = 0;
    for (uint32_t b = 0; b < a.blocks; ++b) {
      const __mmask32 al = A[b];
      if (al == 0) continue;
      const __m512i v = _mm512_maskz_loadu_epi16(al, col + 32u * b);
      const uint32_t in =
          _mm512_cmp_epu16_mask(v, lo, _MM_CMPINT_NLT) &
          _mm512_cmp_epu16_mask(v, hi, _MM_CMPINT_LE);
      __m512i e = _mm512_loadu_si512(exec + 32u * b);
      e = _mm512_mask_add_epi16(e, al, e, one);
      _mm512_storeu_si512(exec + 32u * b, e);
      const uint32_t na = al & (in ^ neg);
      A[b] = na;
      pass += Pop(na);
    }
    if (st.is_new) {
      a.stats->total_acquisitions += live;
      a.stats->acquired.Insert(st.attr);
    }
    if (a.profile != nullptr) a.profile->PredEvalN(st.attr, live, pass);
    live = pass;
  }

  const __m512i base =
      _mm512_set1_epi16(static_cast<short>(a.leaf_cost_offset[slot]));
  uint64_t matches = 0;
  for (uint32_t b = 0; b < a.blocks; ++b) {
    const __mmask32 m = M[b];
    if (m == 0) continue;
    const __m512i e = _mm512_loadu_si512(exec + 32u * b);
    _mm512_mask_storeu_epi16(a.cost_idx + 32u * b, m,
                             _mm512_add_epi16(e, base));
    a.verdict_masks[b] |= A[b];
    matches += Pop(A[b]);
  }
  a.stats->matches += matches;
  if (a.profile != nullptr) a.profile->NodePassN(node.plan_index, matches);
}

/// Constant-verdict leaf: every entering row costs the leaf's entry cost.
void VerdictMasked(const MaskedChunkArgs& a, const BatchPlanView::Node& node,
                   uint32_t slot, const uint32_t* M, uint64_t entered,
                   bool truth) {
  const __m512i base =
      _mm512_set1_epi16(static_cast<short>(a.leaf_cost_offset[slot]));
  for (uint32_t b = 0; b < a.blocks; ++b) {
    const __mmask32 m = M[b];
    if (m == 0) continue;
    _mm512_mask_storeu_epi16(a.cost_idx + 32u * b, m, base);
    if (truth) a.verdict_masks[b] |= m;
  }
  if (truth) a.stats->matches += entered;
  if (a.profile != nullptr) {
    a.profile->NodeEvalN(node.plan_index, entered);
    if (truth) a.profile->NodePassN(node.plan_index, entered);
  }
}

}  // namespace

void RunChunkMasked(const MaskedChunkArgs& a) {
  using Op = BatchPlanView::Op;
  const BatchPlanView& view = *a.view;
  const uint32_t num_slots = static_cast<uint32_t>(view.num_slots());

  // Root mask: all n rows alive (partial last block); verdict masks start
  // empty and leaves OR their survivors in.
  {
    uint32_t* m0 = a.node_masks;
    for (uint32_t b = 0; b < a.blocks; ++b) {
      m0[b] = 0xFFFFFFFFu;
      a.verdict_masks[b] = 0;
    }
    const uint32_t rem = a.n & 31u;
    if (rem != 0) m0[a.blocks - 1] = (1u << rem) - 1u;
  }

  // Same forward parent-before-child sweep as the selection path; a slot
  // with no alive rows is skipped (after propagating empty child masks).
  for (uint32_t s = 0; s < num_slots; ++s) {
    const BatchPlanView::Node& node = view.slot(s);
    const uint32_t* M = a.node_masks + size_t{s} * a.blocks;
    uint64_t entered = 0;
    for (uint32_t b = 0; b < a.blocks; ++b) entered += Pop(M[b]);
    if (a.kernel_rows != nullptr) {
      a.kernel_rows[static_cast<size_t>(node.op)] += entered;
    }
    if (node.op == Op::kSplitFirst || node.op == Op::kSplitRepeat) {
      SplitMasked(a, node, M, node.op == Op::kSplitFirst);
      continue;
    }
    if (entered == 0) continue;
    switch (node.op) {
      case Op::kVerdictTrue:
      case Op::kVerdictFalse:
        VerdictMasked(a, node, s, M, entered, node.op == Op::kVerdictTrue);
        break;
      case Op::kGeneric:
        CAQP_CHECK(false);  // unreachable: generic plans are not eligible
        break;
      default:
        SeqMasked(a, node, s, M, entered);
        break;
    }
  }

  // Expand verdict masks to 0/1 bytes (masked store keeps the tail in
  // bounds), then fold the exact per-row costs in row order — the same
  // addition sequence as the scalar path, hence bit-identical.
  if (a.verdicts != nullptr) {
    const uint32_t rem = a.n & 31u;
    for (uint32_t b = 0; b < a.blocks; ++b) {
      const __m256i bytes =
          _mm256_maskz_set1_epi8(a.verdict_masks[b], static_cast<char>(1));
      const bool partial = rem != 0 && b == a.blocks - 1;
      if (!partial) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(a.verdicts + 32u * b), bytes);
      } else {
        _mm256_mask_storeu_epi8(a.verdicts + 32u * b, (1u << rem) - 1u,
                                bytes);
      }
    }
  }
  const uint16_t* ci = a.cost_idx;
  const double* lc = a.leaf_cost;
  double acc = a.stats->total_cost;
  for (uint32_t i = 0; i < a.n; ++i) acc += lc[ci[i]];
  a.stats->total_cost = acc;
}

}  // namespace caqp::internal
