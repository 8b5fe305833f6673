// BatchPlanView: the level-decomposed, batch-oriented view of a CompiledPlan.
//
// CompiledPlan's preorder node array is ideal for the tuple-at-a-time walk
// (follow one root→leaf path per tuple), but batch execution wants the
// transpose: process every row sitting at a node in one tight loop, then
// hand the partitioned rows to the node's children. BatchPlanView reorders
// the plan into BFS (level-major) slot order and precomputes, per node,
// everything the columnar executor needs to run without touching the plan
// tree or the cost model inside its row loops:
//
//  * slot order — nodes_[s] for s = 0..n-1 in BFS order, so every parent
//    sits at a lower slot than its children. A single forward pass over
//    slots therefore visits parents before children: selection vectors can
//    be produced and consumed in one sweep.
//  * static acquisition metadata — the set of attributes already acquired
//    when a tuple *enters* a node is a property of the node, not the tuple:
//    the root path to a node is unique, and the split walk acquires exactly
//    at first-acquisition splits. entry_acquired caches that set, and each
//    leaf acquisition step carries its own acquired_before set plus an
//    is_new flag (false when an earlier step or the split walk already read
//    the attribute). This is what lets the executor precompute every
//    marginal AcquisitionCostModel::Cost() once per plan instead of once
//    per row — the cost model's virtual call leaves the hot loop entirely.
//  * specialized ops — the 16-byte CompiledPlan node ops are rebucketed
//    into the dispatch alphabet the batch kernels specialize on:
//    split-on-acquired vs first-acquisition, verdict polarity, sequential
//    leaves by arity (1..4 get dedicated kernels, kSeqN is the loop
//    fallback), and kGeneric for residual-query leaves (the executor
//    resumes their rows on the per-row walk).
//
// A BatchPlanView is immutable after construction and holds a pointer to
// the CompiledPlan it was built from; the plan must outlive the view.
// Like the plan itself, a view may be shared across threads freely.

#ifndef CAQP_PLAN_BATCH_PLAN_H_
#define CAQP_PLAN_BATCH_PLAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/predicate.h"
#include "plan/compiled_plan.h"
#include "prob/subproblem.h"

namespace caqp {

class BatchPlanView {
 public:
  /// Specialization alphabet for the batch kernels (see file comment).
  enum class Op : uint8_t {
    kSplitFirst = 0,  ///< split; attr not yet acquired (charge + partition)
    kSplitRepeat,     ///< split on an already-acquired attribute (free)
    kVerdictTrue,     ///< leaf: constant true (also empty sequential leaves)
    kVerdictFalse,    ///< leaf: constant false
    kSeq1,            ///< sequential leaf, exactly 1 predicate
    kSeq2,            ///< sequential leaf, exactly 2 predicates
    kSeq3,            ///< sequential leaf, exactly 3 predicates
    kSeq4,            ///< sequential leaf, exactly 4 predicates
    kSeqN,            ///< sequential leaf, 5+ predicates (loop fallback)
    kGeneric,         ///< residual-query leaf (rows resume per row)
  };

  /// Number of Op values (kGeneric is last). Sizes per-op counter tables in
  /// the executor's kernel telemetry.
  static constexpr size_t kNumOps = static_cast<size_t>(Op::kGeneric) + 1;

  /// Stable lower_snake_case label for `op` (metric name component).
  static const char* OpName(Op op);

  /// One acquisition step of a sequential or generic leaf. For sequential
  /// leaves `pred` is the conjunct evaluated at this step; generic leaves
  /// only use attr/is_new/acquired_before (the residual query drives
  /// evaluation). is_new is false when the split walk or an earlier step of
  /// the same leaf already acquired the attribute — the step then charges
  /// nothing and re-reads the cached value.
  struct AcqStep {
    Predicate pred{};
    AttrId attr = kInvalidAttr;
    bool is_new = false;
    /// Attributes acquired before this step runs (the cost-model argument
    /// for the step's marginal charge when is_new).
    AttrSet acquired_before;
  };

  struct Node {
    Op op = Op::kVerdictFalse;
    AttrId attr = kInvalidAttr;  ///< splits only
    Value split_value = 0;       ///< splits only
    /// Index of this node in the source CompiledPlan's preorder array —
    /// the key under which ExecutionProfile counters are recorded, so the
    /// batch path stays join-compatible with PlanEstimates / calibration.
    uint32_t plan_index = 0;
    uint32_t lt = 0;  ///< "<" child slot (splits only)
    uint32_t ge = 0;  ///< ">=" child slot (splits only)
    /// [steps, steps + num_steps) into steps() (sequential/generic only).
    uint32_t steps = 0;
    uint32_t num_steps = 0;
    /// Attributes already acquired when a tuple enters this node.
    AttrSet entry_acquired;
  };

  /// Builds the view; O(nodes). `plan` must outlive the view.
  explicit BatchPlanView(const CompiledPlan& plan);

  const CompiledPlan& plan() const { return *plan_; }

  size_t num_slots() const { return nodes_.size(); }
  const Node& slot(uint32_t s) const { return nodes_[s]; }

  std::span<const AcqStep> steps(const Node& n) const {
    return {steps_.data() + n.steps, n.num_steps};
  }

 private:
  const CompiledPlan* plan_;
  std::vector<Node> nodes_;
  std::vector<AcqStep> steps_;
};

}  // namespace caqp

#endif  // CAQP_PLAN_BATCH_PLAN_H_
