#include "exec/batch_executor.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "exec/batch_masked.h"
#include "exec/compiled_walk.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace caqp {

#ifndef CAQP_HAVE_AVX512
// Toolchain without AVX-512 support: the masked engine's TU is not built,
// so satisfy its interface with a never-eligible stub.
namespace internal {
bool MaskedChunkAvailable() { return false; }
void RunChunkMasked(const MaskedChunkArgs&) {
  CAQP_CHECK(false);  // unreachable: callers gate on MaskedChunkAvailable()
}
}  // namespace internal
#endif

namespace {

/// The masked engine keeps rows in place, so it only applies when the batch
/// addresses a consecutive dataset range (the overwhelmingly common serving
/// shape: whole table or partition slice).
bool RowsConsecutive(const RowId* rows, size_t n) {
  const RowId base = rows[0];
  for (size_t i = 1; i < n; ++i) {
    if (rows[i] != base + i) return false;
  }
  return true;
}

/// Branch-free choice between two costs: fault-mode kernels pick a row's
/// charged or uncharged running cost by its clean bit, and a branch would
/// mispredict on every unclean row.
inline double SelectCost(bool take, double charged, double uncharged) {
  const uint64_t mask = 0 - static_cast<uint64_t>(take);
  return std::bit_cast<double>((std::bit_cast<uint64_t>(charged) & mask) |
                               (std::bit_cast<uint64_t>(uncharged) & ~mask));
}

/// Bit `pos` of a FaultRealization attribute's clean words.
inline uint32_t CleanBit(const uint64_t* words, size_t pos) {
  return static_cast<uint32_t>(words[pos >> 6] >> (pos & 63)) & 1u;
}

}  // namespace

ColumnarBatchExecutor::ColumnarBatchExecutor(
    const CompiledPlan& plan, const Dataset& data,
    const AcquisitionCostModel& cost_model)
    : plan_(plan),
      data_(data),
      cost_model_(cost_model),
      view_(plan) {
  // Hard runtime bound in every build mode: AttrSet and the executor value
  // scratch are kMaxAttributes wide, and a wider schema would silently
  // corrupt them.
  // Schema construction enforces the same bound, so this is
  // defense-in-depth against hand-built schemas bypassing it.
  CAQP_CHECK(data_.schema().num_attributes() <= kMaxAttributes);

  // Fold the exact-cost tables (header comment): path_cost[s] is the per-row
  // walk's running cost when a row *enters* slot s — 0.0 at the root, plus
  // one static marginal per first-acquisition split along the way, added in
  // root→leaf order. BFS slot order assigns every child after its parent,
  // so one forward pass suffices. Each leaf then extends its entry cost
  // through its acquisition steps: entry k of its leaf_cost_ range is the
  // exact total for a row that executed k steps there. Because these are
  // the same IEEE additions in the same order the per-row walk performs,
  // every table entry is bit-identical to the walk's result.
  // The same marginals, kept per split slot and per leaf step, are what
  // fault mode adds into each row's running cost instead.
  const size_t num_slots = view_.num_slots();
  std::vector<double> path_cost(num_slots, 0.0);
  split_cost_.assign(num_slots, 0.0);
  leaf_cost_offset_.assign(num_slots, UINT32_MAX);
  bool has_generic = false;
  for (uint32_t s = 0; s < num_slots; ++s) {
    const BatchPlanView::Node& node = view_.slot(s);
    switch (node.op) {
      case BatchPlanView::Op::kSplitFirst: {
        split_cost_[s] = cost_model_.Cost(node.attr, node.entry_acquired);
        const double child = path_cost[s] + split_cost_[s];
        path_cost[node.lt] = child;
        path_cost[node.ge] = child;
        break;
      }
      case BatchPlanView::Op::kSplitRepeat:
        path_cost[node.lt] = path_cost[s];
        path_cost[node.ge] = path_cost[s];
        break;
      default: {
        has_generic |= node.op == BatchPlanView::Op::kGeneric;
        leaf_cost_offset_[s] = static_cast<uint32_t>(leaf_cost_.size());
        double c = path_cost[s];
        leaf_cost_.push_back(c);
        const auto steps = view_.steps(node);
        step_cost_.resize(std::max<size_t>(step_cost_.size(),
                                           node.steps + steps.size()));
        for (uint32_t k = 0; k < steps.size(); ++k) {
          const BatchPlanView::AcqStep& st = steps[k];
          // Non-charging steps copy the previous entry: the per-row walk
          // performs no addition there, and even adding 0.0 could flip the
          // sign of a -0.0 intermediate.
          if (st.is_new) {
            step_cost_[node.steps + k] =
                cost_model_.Cost(st.attr, st.acquired_before);
            c = c + step_cost_[node.steps + k];
          }
          leaf_cost_.push_back(c);
        }
        break;
      }
    }
  }

  // The masked engine indexes the cost table through u16 lanes; plans whose
  // tables outgrow that (thousands of deep leaves) keep the selection path.
  // So do plans with a generic leaf: its rows resume on the per-row walk,
  // which only the selection path's divert list feeds.
  masked_eligible_ = internal::MaskedChunkAvailable() &&
                     leaf_cost_.size() <= 65535 && !has_generic;
}

void ColumnarBatchExecutor::EnsureScratch(size_t capacity, bool faulty) {
  if (capacity > chunk_capacity_ || sel_.size() != view_.num_slots()) {
    chunk_capacity_ = std::max(capacity, chunk_capacity_);
    sel_.resize(view_.num_slots());
    for (auto& s : sel_) s.resize(chunk_capacity_);
    sel_n_.assign(view_.num_slots(), 0);
    seq_scratch_.resize(chunk_capacity_);
    row_cost_.resize(chunk_capacity_);
    iota_.resize(chunk_capacity_);
    std::iota(iota_.begin(), iota_.end(), SelIdx{0});
    if (masked_eligible_) {
      // Per-row lanes are rounded up to whole 32-row blocks: the engine's
      // 512-bit loads/stores touch full blocks (mask-protected lanes
      // included), so the buffers must cover the round-up.
      const size_t blocks = (chunk_capacity_ + 31) / 32;
      mask_slots_.resize(view_.num_slots() * blocks);
      mask_alive_.resize(blocks);
      mask_verdict_.resize(blocks);
      mask_exec_.resize(blocks * 32);
      mask_cost_idx_.resize(blocks * 32);
    }
  }
  // Only fault mode routes and diverts rows: a fault-free scan (a shard
  // builds one executor per request) allocates and zeroes none of these.
  if (faulty && clean_sel_.size() < chunk_capacity_) {
    div_scratch_.resize(chunk_capacity_);
    clean_sel_.resize(chunk_capacity_);
    fault_sel_.resize(chunk_capacity_);
  }
}

template <bool kFirstAcq, bool kProfiled, bool kFaulty>
void ColumnarBatchExecutor::SplitKernel(const BatchPlanView::Node& node,
                                        uint32_t slot, const SelIdx* sel_in,
                                        const RowId* rows,
                                        ExecutionProfile* profile,
                                        BatchExecutionStats* stats) {
  const uint32_t cnt = sel_n_[slot];
  // All five buffers are genuinely disjoint (children are distinct slots;
  // the input is the parent's buffer or the identity table), so __restrict
  // lets the compiler overlap iterations instead of replaying loads after
  // every partition store.
  const Value* __restrict col = data_.column(node.attr).data();
  const SelIdx* __restrict in = sel_in;
  const RowId* __restrict row_ids = rows;
  const Value split_value = node.split_value;
  SelIdx* __restrict lt_out = sel_[node.lt].data();
  SelIdx* __restrict ge_out = sel_[node.ge].data();
  // A plan is a tree: this split is its children's only parent, so both
  // output selections start empty. Outside fault mode cost is not touched
  // here — the split's charge is folded into every downstream leaf's cost
  // table.
  uint32_t nl = 0;
  uint32_t ng = 0;
  uint32_t nd = 0;  // fault mode: rows leaving for the per-row resume
  if constexpr (kFaulty && kFirstAcq) {
    // Fault mode charges the split into each row's running cost. A row
    // whose realized attempt 0 is clean adds the marginal and partitions as
    // usual; the others are set aside, then pay the per-row walk's
    // attempt-loop charges and partition too if the acquisition still
    // succeeds (a retry or a spike), or join the resume list if it fails.
    // Selection order is immaterial: every output is stored per position.
    const uint64_t* __restrict ok = faults_->clean_words(node.attr);
    const size_t off = chunk_off_;
    const double charge = split_cost_[slot];
    double* __restrict rc = row_cost_.data();
    SelIdx* __restrict div = div_scratch_.data();
    for (uint32_t i = 0; i < cnt; ++i) {
      const SelIdx pos = in[i];
      const RowId row = row_ids[pos];
      const bool ge = col[row] >= split_value;
      const bool clean = CleanBit(ok, off + pos);
      rc[pos] = SelectCost(clean, rc[pos] + charge, rc[pos]);
      lt_out[nl] = pos;
      ge_out[ng] = pos;
      div[nd] = pos;
      nl += !ge & clean;
      ng += ge & clean;
      nd += !clean;
    }
    uint32_t failed = 0;
    for (uint32_t j = 0; j < nd; ++j) {
      const SelIdx pos = div[j];
      const RowId row = row_ids[pos];
      if (!ChargeAttempts(row, node.attr, charge, pos, stats)) {
        div[failed++] = pos;
      } else if (col[row] >= split_value) {
        ge_out[ng++] = pos;
      } else {
        lt_out[nl++] = pos;
      }
    }
    nd = failed;
    Divert(slot, /*step=*/-1, div, nd);
  } else {
    for (uint32_t i = 0; i < cnt; ++i) {
      const SelIdx pos = in[i];
      const bool ge = col[row_ids[pos]] >= split_value;
      // Branch-light partition: write both outputs, advance one count.
      lt_out[nl] = pos;
      ge_out[ng] = pos;
      nl += !ge;
      ng += ge;
    }
  }
  sel_n_[node.lt] = nl;
  sel_n_[node.ge] = ng;
  const uint32_t evaluated = cnt - nd;
  if constexpr (kFirstAcq) {
    stats->total_acquisitions += evaluated;
    if (!kFaulty || evaluated > 0) stats->acquired.Insert(node.attr);
  }
  if constexpr (kProfiled) {
    profile->NodeEvalN(node.plan_index, evaluated);
    profile->PredEvalN(node.attr, evaluated, ng);
    profile->NodePassN(node.plan_index, ng);
  }
}

template <int kArity, bool kProfiled, bool kVerdicts, bool kFaulty>
void ColumnarBatchExecutor::SeqKernel(const BatchPlanView::Node& node,
                                      uint32_t slot, const SelIdx* sel_in,
                                      const RowId* rows, uint8_t* verdicts,
                                      ExecutionProfile* profile,
                                      BatchExecutionStats* stats) {
  const uint32_t cnt = sel_n_[slot];
  if constexpr (kProfiled) profile->NodeEvalN(node.plan_index, cnt);
  // Failing rows stop being copied forward, so default every verdict in the
  // selection to false and overwrite the survivors at the end.
  if constexpr (kVerdicts) {
    uint8_t* __restrict vd = verdicts;
    const SelIdx* __restrict in = sel_in;
    for (uint32_t i = 0; i < cnt; ++i) vd[in[i]] = 0;
  }

  const auto steps = view_.steps(node);
  const double* cost_at = leaf_cost_.data() + leaf_cost_offset_[slot];
  // kArity > 0 fixes the step count at compile time (the 1..4 hot shapes
  // fully unroll); kArity == 0 is the dynamic kSeqN fallback.
  const int num_steps = kArity > 0 ? kArity : static_cast<int>(steps.size());
  uint32_t live = cnt;
  // Compaction ping-pongs between the shared scratch and this slot's own
  // buffer, so every step's source and destination are disjoint — the
  // precondition for the __restrict qualifiers below (an in-place filter
  // would make each store a potential clobber of the next load and
  // serialize the loop).
  const SelIdx* src = sel_in;
  SelIdx* ping = seq_scratch_.data();
  SelIdx* pong = sel_[slot].data();
  for (int k = 0; k < num_steps && live > 0; ++k) {
    const BatchPlanView::AcqStep& st = steps[k];
    const Value* __restrict col = data_.column(st.attr).data();
    const SelIdx* __restrict in = src;
    SelIdx* __restrict dst = ping;
    const RowId* __restrict row_ids = rows;
    double* __restrict rc = row_cost_.data();
    // Branchless predicate: Matches() with the range compare folded to
    // bit ops so the survivor count never depends on a predicted branch.
    const Value lo = st.pred.lo;
    const Value hi = st.pred.hi;
    const uint32_t neg = st.pred.negated ? 1u : 0u;
    // Exact cost after executing steps 0..k: rows failing here keep this
    // value; survivors are overwritten at the next step. One plain store
    // per evaluated row replaces the per-row walk's accumulate.
    const double cost_after = cost_at[k + 1];
    uint32_t out = 0;
    uint32_t nd = 0;  // fault mode: rows leaving for the per-row resume
    if constexpr (kFaulty) {
      if (st.is_new) {
        // Fault mode, as in the split kernel: the new acquisition reads
        // its realized attempt 0 before its conjunct and charges the row's
        // running cost; set-aside rows whose acquisition still succeeds
        // filter on, the rest resume at this step.
        const uint64_t* __restrict ok = faults_->clean_words(st.attr);
        const size_t off = chunk_off_;
        const double charge = step_cost_[node.steps + k];
        SelIdx* __restrict div = div_scratch_.data();
        for (uint32_t i = 0; i < live; ++i) {
          const SelIdx pos = in[i];
          dst[out] = pos;
          div[nd] = pos;
          const Value v = col[row_ids[pos]];
          const uint32_t clean = CleanBit(ok, off + pos);
          rc[pos] = SelectCost(clean, rc[pos] + charge, rc[pos]);
          out += ((static_cast<uint32_t>(lo <= v) &
                   static_cast<uint32_t>(v <= hi)) ^
                  neg) &
                 clean;
          nd += clean ^ 1u;
        }
        uint32_t failed = 0;
        for (uint32_t j = 0; j < nd; ++j) {
          const SelIdx pos = div[j];
          const RowId row = row_ids[pos];
          if (!ChargeAttempts(row, st.attr, charge, pos, stats)) {
            div[failed++] = pos;
          } else if (st.pred.Matches(col[row])) {
            dst[out++] = pos;
          }
        }
        nd = failed;
        Divert(slot, k, div, nd);
      } else {
        // A repeat read charges nothing and cannot fail.
        for (uint32_t i = 0; i < live; ++i) {
          const SelIdx pos = in[i];
          dst[out] = pos;
          const Value v = col[row_ids[pos]];
          out += (static_cast<uint32_t>(lo <= v) &
                  static_cast<uint32_t>(v <= hi)) ^
                 neg;
        }
      }
    } else {
      for (uint32_t i = 0; i < live; ++i) {
        const SelIdx pos = in[i];
        rc[pos] = cost_after;
        dst[out] = pos;
        const Value v = col[row_ids[pos]];
        out += (static_cast<uint32_t>(lo <= v) &
                static_cast<uint32_t>(v <= hi)) ^
               neg;
      }
    }
    const uint32_t evaluated = live - nd;
    if (st.is_new) {
      stats->total_acquisitions += evaluated;
      if (!kFaulty || evaluated > 0) stats->acquired.Insert(st.attr);
    }
    if constexpr (kProfiled) profile->PredEvalN(st.attr, evaluated, out);
    live = out;
    src = ping;
    std::swap(ping, pong);
  }
  if constexpr (kVerdicts) {
    uint8_t* __restrict vd = verdicts;
    const SelIdx* __restrict in = src;
    for (uint32_t i = 0; i < live; ++i) vd[in[i]] = 1;
  }
  stats->matches += live;
  if constexpr (kProfiled) profile->NodePassN(node.plan_index, live);
}

uint32_t ColumnarBatchExecutor::Route(uint32_t n) {
  // One word of clean bits per 64 chunk rows, ANDed over every attribute
  // the plan can acquire; the chunk's offset into the realization's rows
  // need not be a multiple of 64.
  const AttrSet attrs = plan_.attrs();
  SelIdx* __restrict clean = clean_sel_.data();
  SelIdx* __restrict faulty = fault_sel_.data();
  uint32_t nc = 0;
  uint32_t nf = 0;
  for (uint32_t base = 0; base < n; base += 64) {
    uint64_t all = ~uint64_t{0};
    for (uint64_t bits = attrs.bits; bits != 0; bits &= bits - 1) {
      all &= faults_->CleanWord(static_cast<AttrId>(std::countr_zero(bits)),
                                chunk_off_ + base);
    }
    const uint32_t cnt = std::min<uint32_t>(64, n - base);
    for (uint32_t j = 0; j < cnt; ++j) {
      const SelIdx pos = static_cast<SelIdx>(base + j);
      const uint32_t c = static_cast<uint32_t>(all >> j) & 1u;
      clean[nc] = pos;
      faulty[nf] = pos;
      nc += c;
      nf += c ^ 1u;
    }
  }
  return nc;
}

bool ColumnarBatchExecutor::ChargeAttempts(RowId row, AttrId attr,
                                           double marginal_cost, SelIdx pos,
                                           BatchExecutionStats* stats) {
  // The per-row walk's attempt-loop additions, in its order: the marginal
  // times the attempt's cost multiplier, times the retry multiplier past
  // the first attempt. Committed only if an attempt succeeds: a failing
  // acquisition is redone from attempt 0 by the resume.
  double cost = row_cost_[pos];
  for (int att = 0; att < max_attempts_; ++att) {
    const FaultInjector::Outcome o =
        faults_->injector().At(row, attr, static_cast<uint32_t>(att));
    double marginal = marginal_cost * o.cost_multiplier;
    if (att > 0) marginal *= policy_.retry_cost_multiplier;
    cost += marginal;
    if (!o.fail) {
      row_cost_[pos] = cost;
      stats->total_retries += static_cast<size_t>(att);
      stats->faults_injected += static_cast<size_t>(att);
      return true;
    }
    if (o.permanent) break;
  }
  return false;
}

void ColumnarBatchExecutor::Divert(uint32_t slot, int32_t step,
                                   const SelIdx* pos, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    diverted_.push_back(Diverted{slot, step, pos[i]});
  }
}

template <bool kProfiled, typename Source>
void ColumnarBatchExecutor::ResumeDiverted(RowSource& base, Source& source,
                                           const RowId* rows,
                                           uint8_t* verdicts,
                                           ExecutionProfile* profile,
                                           BatchExecutionStats* stats) {
  Value values[kMaxAttributes] = {};
  for (const Diverted& d : diverted_) {
    const BatchPlanView::Node& node = view_.slot(d.slot);
    const RowId row = rows[d.pos];
    // The static entry state: every acquisition on the way here succeeded,
    // so the row holds exactly the attributes acquired before this node (or
    // leaf step), and row_cost_ holds the walk's total so far. The kernels
    // above already counted those acquisitions, their retries, and the
    // profile events.
    ExecutionResult r;
    r.acquired = d.step < 0 ? node.entry_acquired
                            : view_.steps(node)[d.step].acquired_before;
    r.cost = row_cost_[d.pos];
    const int entry_acquisitions = r.acquired.Count();
    r.acquisitions = entry_acquisitions;
    for (uint64_t bits = r.acquired.bits; bits != 0; bits &= bits - 1) {
      const AttrId a = static_cast<AttrId>(__builtin_ctzll(bits));
      values[a] = data_.at(row, a);
    }
    base.SetRow(row);
    source.SetRow(row);
    internal::WalkCompiled<false, kProfiled>(
        plan_, data_.schema(), cost_model_, source, /*trace=*/nullptr, policy_,
        profile, node.plan_index, d.step, values, r);
    row_cost_[d.pos] = r.cost;
    if (verdicts != nullptr) verdicts[d.pos] = static_cast<uint8_t>(r.verdict3);
    stats->matches += r.verdict3 == Truth::kTrue;
    stats->unknown += r.verdict3 == Truth::kUnknown;
    stats->aborted += r.aborted;
    stats->total_acquisitions +=
        static_cast<size_t>(r.acquisitions - entry_acquisitions);
    stats->total_retries += static_cast<size_t>(r.retries);
    stats->failed_attributes += static_cast<size_t>(r.failed.Count());
    stats->failed = stats->failed.Union(r.failed);
    stats->acquired = stats->acquired.Union(r.acquired);
  }
  diverted_.clear();
}

template <bool kProfiled, bool kVerdicts, bool kFaulty>
void ColumnarBatchExecutor::RunChunk(const RowId* rows, uint32_t n,
                                     uint8_t* verdicts,
                                     ExecutionProfile* profile,
                                     BatchExecutionStats* stats) {
  if constexpr (kFaulty) {
    // Rows clean on every attribute the plan can acquire run the fault-free
    // sweep; the rest accumulate their running cost from the per-row walk's
    // starting 0.0 through the fault sweep. Both sweeps' diverted rows
    // finish on the walk, over the row-keyed draws.
    const uint32_t num_clean = Route(n);
    Sweep<kProfiled, kVerdicts, false>(clean_sel_.data(), num_clean, rows,
                                       verdicts, profile, stats);
    const uint32_t num_faulty = n - num_clean;
    const SelIdx* faulty = fault_sel_.data();
    for (uint32_t i = 0; i < num_faulty; ++i) row_cost_[faulty[i]] = 0.0;
    Sweep<kProfiled, kVerdicts, true>(faulty, num_faulty, rows, verdicts,
                                      profile, stats);
    RowSource base(data_);
    FaultyAcquisitionSource source(base, faults_->injector());
    ResumeDiverted<kProfiled>(base, source, rows,
                              kVerdicts ? verdicts : nullptr, profile, stats);
    stats->faults_injected += source.injected();
    resumed_faults_ += source.injected();
  } else {
    Sweep<kProfiled, kVerdicts, false>(iota_.data(), n, rows, verdicts,
                                       profile, stats);
    // Only generic leaves divert a fault-free row.
    if (!diverted_.empty()) {
      RowSource source(data_);
      ResumeDiverted<kProfiled>(source, source, rows,
                                kVerdicts ? verdicts : nullptr, profile, stats);
    }
  }

  // Row-order summation reproduces the per-row oracle's addition sequence
  // exactly: each row_cost_[pos] is a table entry folded in path order (or
  // a fault-sweep row's running cost, or a resumed row's walk total), so
  // total_cost is bit-identical to the oracle. The running total stays in
  // a local: with a store per row, this latency-bound loop's speed hung on
  // where it landed in the code, and an unrelated edit to this file cost
  // perfbench dist_scan ~7% (4-vCPU VM).
  const double* row_cost = row_cost_.data();
  double total = stats->total_cost;
  for (uint32_t i = 0; i < n; ++i) total += row_cost[i];
  stats->total_cost = total;
}

template <bool kProfiled, bool kVerdicts, bool kFaulty>
void ColumnarBatchExecutor::Sweep(const SelIdx* root_sel, uint32_t root_n,
                                  const RowId* rows, uint8_t* verdicts,
                                  ExecutionProfile* profile,
                                  BatchExecutionStats* stats) {
  using Op = BatchPlanView::Op;
  if (root_n == 0) return;
  std::fill(sel_n_.begin(), sel_n_.end(), 0u);
  sel_n_[0] = root_n;

  // One forward sweep: BFS slot order visits every parent before its
  // children, so each node's selection is complete when reached. The root
  // reads the caller's selection (a fault-free chunk passes the persistent
  // identity table, not a per-chunk iota); every row receives exactly one
  // row_cost_ store at its unique leaf, so there is no per-chunk cost fill
  // either (outside the fault sweep).
  const uint32_t num_slots = static_cast<uint32_t>(view_.num_slots());
  for (uint32_t s = 0; s < num_slots; ++s) {
    if (sel_n_[s] == 0) continue;
    const BatchPlanView::Node& node = view_.slot(s);
    kernel_rows_[static_cast<size_t>(node.op)] += sel_n_[s];
    const SelIdx* sel_in = s == 0 ? root_sel : sel_[s].data();
    switch (node.op) {
      case Op::kSplitFirst:
        SplitKernel<true, kProfiled, kFaulty>(node, s, sel_in, rows, profile,
                                              stats);
        break;
      case Op::kSplitRepeat:
        SplitKernel<false, kProfiled, kFaulty>(node, s, sel_in, rows, profile,
                                               stats);
        break;
      case Op::kVerdictTrue:
      case Op::kVerdictFalse: {
        const uint32_t cnt = sel_n_[s];
        const bool truth = node.op == Op::kVerdictTrue;
        const double entry_cost = leaf_cost_[leaf_cost_offset_[s]];
        const SelIdx* __restrict in = sel_in;
        double* __restrict rc = row_cost_.data();
        uint8_t* __restrict vd = verdicts;
        for (uint32_t i = 0; i < cnt; ++i) {
          const SelIdx pos = in[i];
          // Fault mode's running cost already holds the path cost.
          if constexpr (!kFaulty) rc[pos] = entry_cost;
          if constexpr (kVerdicts) vd[pos] = truth ? 1 : 0;
        }
        if (truth) stats->matches += cnt;
        if constexpr (kProfiled) {
          profile->NodeEvalN(node.plan_index, cnt);
          if (truth) profile->NodePassN(node.plan_index, cnt);
        }
        break;
      }
      case Op::kSeq1:
        SeqKernel<1, kProfiled, kVerdicts, kFaulty>(
            node, s, sel_in, rows, verdicts, profile, stats);
        break;
      case Op::kSeq2:
        SeqKernel<2, kProfiled, kVerdicts, kFaulty>(
            node, s, sel_in, rows, verdicts, profile, stats);
        break;
      case Op::kSeq3:
        SeqKernel<3, kProfiled, kVerdicts, kFaulty>(
            node, s, sel_in, rows, verdicts, profile, stats);
        break;
      case Op::kSeq4:
        SeqKernel<4, kProfiled, kVerdicts, kFaulty>(
            node, s, sel_in, rows, verdicts, profile, stats);
        break;
      case Op::kSeqN:
        SeqKernel<0, kProfiled, kVerdicts, kFaulty>(
            node, s, sel_in, rows, verdicts, profile, stats);
        break;
      case Op::kGeneric: {
        // Residual-query leaves evaluate per row anyway: the per-row walk
        // finishes every row that reaches one, from the leaf's entry cost
        // (fault mode's running cost already holds it).
        if constexpr (!kFaulty) {
          const double entry_cost = leaf_cost_[leaf_cost_offset_[s]];
          for (uint32_t i = 0; i < sel_n_[s]; ++i) {
            row_cost_[sel_in[i]] = entry_cost;
          }
        }
        Divert(s, /*step=*/-1, sel_in, sel_n_[s]);
        break;
      }
    }
  }
}

template <bool kFaulty>
void ColumnarBatchExecutor::RunSelectionChunk(const RowId* rows, uint32_t n,
                                              uint8_t* verdicts,
                                              ExecutionProfile* profile,
                                              BatchExecutionStats* stats) {
  if (profile != nullptr) {
    if (verdicts != nullptr) {
      RunChunk<true, true, kFaulty>(rows, n, verdicts, profile, stats);
    } else {
      RunChunk<true, false, kFaulty>(rows, n, nullptr, profile, stats);
    }
  } else {
    if (verdicts != nullptr) {
      RunChunk<false, true, kFaulty>(rows, n, verdicts, nullptr, stats);
    } else {
      RunChunk<false, false, kFaulty>(rows, n, nullptr, nullptr, stats);
    }
  }
}

BatchExecutionStats ColumnarBatchExecutor::Execute(
    std::span<const RowId> rows, std::vector<uint8_t>* verdicts,
    const BatchExecOptions& options) {
  CAQP_OBS_SPAN(batch_span, "exec.batch_columnar");
  // A realization's bits are positions in the span it was drawn over: over
  // any other rows its set bits would lie.
  CAQP_CHECK(options.faults == nullptr ||
             (options.faults->rows().data() == rows.data() &&
              options.faults->rows().size() == rows.size() &&
              options.faults->num_attributes() >=
                  data_.schema().num_attributes()));
  BatchExecutionStats stats;
  stats.tuples = rows.size();
  if (verdicts != nullptr) verdicts->assign(rows.size(), 0);
  if (rows.empty()) return stats;

  size_t chunk = options.chunk_size == 0 ? rows.size() : options.chunk_size;
  chunk = std::min(chunk, kMaxChunk);  // SelIdx is 16-bit
  EnsureScratch(std::min(chunk, rows.size()), options.faults != nullptr);
  // Profiling rides the obs switch, as in ExecutePlan.
  ExecutionProfile* profile = obs::Enabled() ? options.profile : nullptr;
  faults_ = options.faults;
  resumed_faults_ = 0;
  policy_ = options.policy;
  max_attempts_ = policy_.mode == DegradationPolicy::Mode::kRetry
                      ? std::max(1, policy_.max_attempts)
                      : 1;
  const bool masked = masked_eligible_ && faults_ == nullptr &&
                      RowsConsecutive(rows.data(), rows.size());

  for (size_t off = 0; off < rows.size(); off += chunk) {
    const uint32_t n =
        static_cast<uint32_t>(std::min(chunk, rows.size() - off));
    uint8_t* out = verdicts != nullptr ? verdicts->data() + off : nullptr;
    const RowId* chunk_rows = rows.data() + off;
    chunk_off_ = off;
    if (masked) {
      internal::MaskedChunkArgs args;
      args.view = &view_;
      args.data = &data_;
      args.leaf_cost = leaf_cost_.data();
      args.leaf_cost_offset = leaf_cost_offset_.data();
      args.node_masks = mask_slots_.data();
      args.alive_scratch = mask_alive_.data();
      args.exec_scratch = mask_exec_.data();
      args.cost_idx = mask_cost_idx_.data();
      args.verdict_masks = mask_verdict_.data();
      args.row_base = chunk_rows[0];
      args.n = n;
      args.blocks = (n + 31) / 32;
      args.verdicts = out;
      args.profile = profile;
      args.stats = &stats;
      args.kernel_rows = kernel_rows_.data();
      internal::RunChunkMasked(args);
      ++masked_chunks_;
      masked_rows_ += n;
    } else if (faults_ != nullptr) {
      RunSelectionChunk<true>(chunk_rows, n, out, profile, &stats);
    } else {
      RunSelectionChunk<false>(chunk_rows, n, out, profile, &stats);
    }
    if (!masked) ++selection_chunks_;
  }

  if (profile != nullptr) {
    // One bulk total per call: a fresh profile's realized_cost then equals
    // the per-tuple path bitwise (0 + row-order total).
    profile->EndBatch(stats.total_cost, stats.total_acquisitions,
                      stats.tuples, stats.unknown);
  }
  CAQP_OBS_COUNTER_ADD("exec.tuples", static_cast<uint64_t>(stats.tuples));
  CAQP_OBS_COUNTER_ADD("exec.acquisitions",
                       static_cast<uint64_t>(stats.total_acquisitions));
  if (faults_ != nullptr) {
    // The per-row path's remaining exec / fault counters, summed once.
    if (stats.total_retries > 0) {
      CAQP_OBS_COUNTER_ADD("exec.retries",
                           static_cast<uint64_t>(stats.total_retries));
    }
    if (stats.failed_attributes > 0) {
      CAQP_OBS_COUNTER_ADD("exec.failed_attributes",
                           static_cast<uint64_t>(stats.failed_attributes));
    }
    if (stats.aborted > 0) {
      CAQP_OBS_COUNTER_ADD("exec.aborts", static_cast<uint64_t>(stats.aborted));
    }
    if (stats.unknown > stats.aborted) {
      CAQP_OBS_COUNTER_ADD(
          "exec.unknown_verdicts",
          static_cast<uint64_t>(stats.unknown - stats.aborted));
    }
    // The resume's source counted its own failures as they happened.
    if (stats.faults_injected > resumed_faults_) {
      CAQP_OBS_COUNTER_ADD(
          "fault.injected",
          static_cast<uint64_t>(stats.faults_injected - resumed_faults_));
    }
  }
  if (obs::Enabled()) {
    // The CAQP_OBS_COUNTER_ADD macro caches one Counter& per call site, so
    // it cannot loop over per-op names; resolve the whole table once.
    struct KernelCounters {
      std::array<obs::Counter*, BatchPlanView::kNumOps> rows;
      obs::Counter* masked_chunks;
      obs::Counter* masked_rows;
      obs::Counter* selection_chunks;
      KernelCounters() {
        obs::MetricsRegistry& reg = obs::DefaultRegistry();
        for (size_t op = 0; op < BatchPlanView::kNumOps; ++op) {
          rows[op] = &reg.GetCounter(
              std::string("exec.batch.kernel_rows.") +
              BatchPlanView::OpName(static_cast<BatchPlanView::Op>(op)));
        }
        masked_chunks = &reg.GetCounter("exec.batch.masked_chunks");
        masked_rows = &reg.GetCounter("exec.batch.masked_rows");
        selection_chunks = &reg.GetCounter("exec.batch.selection_chunks");
      }
    };
    static KernelCounters counters;
    for (size_t op = 0; op < BatchPlanView::kNumOps; ++op) {
      if (kernel_rows_[op] != 0) counters.rows[op]->Add(kernel_rows_[op]);
    }
    if (masked_chunks_ != 0) counters.masked_chunks->Add(masked_chunks_);
    if (masked_rows_ != 0) counters.masked_rows->Add(masked_rows_);
    if (selection_chunks_ != 0) {
      counters.selection_chunks->Add(selection_chunks_);
    }
  }
  // Reset the scratch either way: tallies accumulated while obs is disabled
  // are dropped, not deferred, so enabling obs mid-run starts clean.
  kernel_rows_.fill(0);
  masked_chunks_ = 0;
  masked_rows_ = 0;
  selection_chunks_ = 0;
  return stats;
}

BatchExecutionStats ExecuteBatchColumnar(const CompiledPlan& plan,
                                         const Dataset& data,
                                         std::span<const RowId> rows,
                                         const AcquisitionCostModel& cost_model,
                                         std::vector<uint8_t>* verdicts,
                                         const BatchExecOptions& options) {
  ColumnarBatchExecutor exec(plan, data, cost_model);
  return exec.Execute(rows, verdicts, options);
}

}  // namespace caqp
