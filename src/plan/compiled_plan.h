// CompiledPlan: the flat, immutable, executable form of a conditional plan.
//
// Planners build Plan trees (plan/plan.h): unique_ptr nodes are convenient
// to construct and rewrite. Everything downstream of planning — the per-tuple
// executor, costing, printing, verification, serialization, the serve cache,
// mote dissemination — wants the opposite trade-off: a compact, pointer-free
// layout that walks by index, fits in a few cache lines, and can be shared
// across threads without cloning. CompiledPlan is that form, mirroring how
// production engines lower a logical plan into a flat executable program.
// It is the only form those APIs take: Compile is the one way in from a
// tree, and there is no way back (the wire decoder builds a CompiledPlan
// directly).
//
// Layout
//   * nodes_ is the preorder flattening of the tree with the root at index
//     0. A split's "<" child is always the next node (lt == i + 1), so only
//     the ">=" child index is stored; leaves store offsets into side tables.
//   * Side tables hold variable-length leaf payloads contiguously:
//     predicates_ (sequential leaves), order_ (generic acquire orders) and
//     queries_ (generic residual queries).
//   * Each split carries a precomputed "first acquisition" flag: true iff no
//     ancestor split on the root path observes the same attribute. During
//     the split walk an acquisition failure terminates traversal, so a
//     non-first split is only ever reached with its attribute already
//     acquired — the executor reads the cached value with no set lookup at
//     all, and a first split acquires with no set lookup either.
//
// Thread safety: a CompiledPlan is immutable after Compile/deserialization.
// Any number of threads may execute, cost, print, or serialize the same
// instance concurrently with no synchronization; this is what lets
// caqp::serve hand one shared_ptr<const CompiledPlan> to every request.

#ifndef CAQP_PLAN_COMPILED_PLAN_H_
#define CAQP_PLAN_COMPILED_PLAN_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"
#include "prob/subproblem.h"

namespace caqp {

struct PlanEstimates;  // plan/plan_estimates.h

class CompiledPlan {
 public:
  using Kind = PlanNode::Kind;

  /// Node flag bits.
  static constexpr uint8_t kFlagVerdict = 1 << 0;
  static constexpr uint8_t kFlagFirstAcquisition = 1 << 1;

  /// One flattened plan node (16 bytes). Field use by kind:
  ///   kSplit      attr/split_value; a = ">=" child index ("<" is i + 1)
  ///   kVerdict    kFlagVerdict in flags
  ///   kSequential a/b = offset/count into the predicate side table
  ///   kGeneric    a/b = offset/count into the acquire-order side table,
  ///               aux = index into the residual-query side table
  struct Node {
    Kind kind = Kind::kVerdict;
    uint8_t flags = 0;
    AttrId attr = kInvalidAttr;
    Value split_value = 0;
    uint16_t aux = 0;
    uint32_t a = 0;
    uint32_t b = 0;

    bool verdict() const { return flags & kFlagVerdict; }
    /// kSplit only: no ancestor split observes the same attribute.
    bool first_acquisition() const { return flags & kFlagFirstAcquisition; }
  };

  /// A compiled verdict-false plan (the same default as Plan).
  CompiledPlan() { *this = Compile(*PlanNode::Verdict(false)); }

  /// Lowers a plan tree into flat form. O(nodes); the input is unchanged.
  static CompiledPlan Compile(const Plan& plan) {
    return Compile(plan.root());
  }
  static CompiledPlan Compile(const PlanNode& root);

  const Node& node(uint32_t i) const {
    CAQP_DCHECK(i < nodes_.size());
    return nodes_[i];
  }
  const Node& root() const { return nodes_[0]; }
  /// The "<" child of split `i` (preorder invariant).
  static uint32_t LtChild(uint32_t i) { return i + 1; }

  /// Leaf payload accessors (valid for the matching node kind only).
  std::span<const Predicate> sequence(const Node& n) const {
    return {predicates_.data() + n.a, n.b};
  }
  std::span<const AttrId> acquire_order(const Node& n) const {
    return {order_.data() + n.a, n.b};
  }
  const Query& residual_query(const Node& n) const { return queries_[n.aux]; }

  /// Every attribute the plan can acquire (splits, sequences, orders).
  AttrSet attrs() const { return attrs_; }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumSplits() const { return num_splits_; }
  size_t Depth() const { return depth_; }

  /// Attaches the planner's predicted per-node selectivity/cost side tables
  /// (plan/plan_estimates.h). Estimates are advisory metadata: they never
  /// affect execution, are not serialized, and must be attached before the
  /// plan is shared across threads (immutability contract above). nullptr is
  /// allowed and means "no estimates".
  void AttachEstimates(std::shared_ptr<const PlanEstimates> estimates) {
    estimates_ = std::move(estimates);
  }
  /// The attached estimates, or nullptr if the producing planner did not
  /// stamp any (e.g. a deserialized or hand-compiled plan).
  const PlanEstimates* estimates() const { return estimates_.get(); }
  std::shared_ptr<const PlanEstimates> shared_estimates() const {
    return estimates_;
  }

 private:
  friend Result<CompiledPlan> DeserializeCompiledPlan(
      const std::vector<uint8_t>&, const Schema&);

  /// Uninitialized-shell constructor for Compile/deserialization (the
  /// public default constructor compiles a verdict-false plan).
  struct RawTag {};
  explicit CompiledPlan(RawTag) {}

  uint32_t AppendSubtree(const PlanNode& n);
  size_t DepthOf(uint32_t i) const;
  /// Recomputes attrs_/num_splits_/depth_/first-acquisition flags from the
  /// node array (deserialization builds the arrays directly).
  void FinishFromNodes();

  std::vector<Node> nodes_;
  std::vector<Predicate> predicates_;
  std::vector<AttrId> order_;
  std::vector<Query> queries_;
  AttrSet attrs_;
  size_t num_splits_ = 0;
  size_t depth_ = 0;
  /// Predicted side tables (see AttachEstimates). Shared, immutable.
  std::shared_ptr<const PlanEstimates> estimates_;
};

}  // namespace caqp

#endif  // CAQP_PLAN_COMPILED_PLAN_H_
