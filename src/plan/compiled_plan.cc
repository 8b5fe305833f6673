#include "plan/compiled_plan.h"

#include <algorithm>

namespace caqp {

CompiledPlan CompiledPlan::Compile(const PlanNode& root) {
  CompiledPlan out{RawTag{}};
  out.AppendSubtree(root);
  out.FinishFromNodes();
  return out;
}

uint32_t CompiledPlan::AppendSubtree(const PlanNode& n) {
  const uint32_t idx = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  // nodes_ may reallocate during child recursion: write through the index.
  nodes_[idx].kind = n.kind;
  switch (n.kind) {
    case Kind::kVerdict:
      if (n.verdict) nodes_[idx].flags = kFlagVerdict;
      break;
    case Kind::kSequential:
      nodes_[idx].a = static_cast<uint32_t>(predicates_.size());
      nodes_[idx].b = static_cast<uint32_t>(n.sequence.size());
      predicates_.insert(predicates_.end(), n.sequence.begin(),
                         n.sequence.end());
      break;
    case Kind::kGeneric:
      CAQP_CHECK_LT(queries_.size(), 65536u);  // aux is 16 bits
      nodes_[idx].aux = static_cast<uint16_t>(queries_.size());
      queries_.push_back(n.residual_query);
      nodes_[idx].a = static_cast<uint32_t>(order_.size());
      nodes_[idx].b = static_cast<uint32_t>(n.acquire_order.size());
      order_.insert(order_.end(), n.acquire_order.begin(),
                    n.acquire_order.end());
      break;
    case Kind::kSplit: {
      nodes_[idx].attr = n.attr;
      nodes_[idx].split_value = n.split_value;
      const uint32_t lt = AppendSubtree(*n.lt);
      CAQP_DCHECK(lt == idx + 1);  // preorder invariant
      (void)lt;
      nodes_[idx].a = AppendSubtree(*n.ge);
      break;
    }
  }
  return idx;
}

void CompiledPlan::FinishFromNodes() {
  CAQP_CHECK(!nodes_.empty());
  attrs_ = AttrSet::None();
  num_splits_ = 0;
  // Preorder with lt == i + 1 means node order IS traversal order, so one
  // linear pass with a two-phase ancestor stack (lt side, then ge side)
  // reconstructs the root path of every node.
  struct Frame {
    AttrId attr;
    bool in_ge;
  };
  std::vector<Frame> stack;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    n.flags &= kFlagVerdict;  // recompute the first-acquisition bit
    if (n.kind == Kind::kSplit) {
      ++num_splits_;
      attrs_.Insert(n.attr);
      const bool seen = std::any_of(
          stack.begin(), stack.end(),
          [&](const Frame& f) { return f.attr == n.attr; });
      if (!seen) n.flags |= kFlagFirstAcquisition;
      stack.push_back(Frame{n.attr, false});
    } else {
      if (n.kind == Kind::kSequential) {
        for (const Predicate& p : sequence(n)) attrs_.Insert(p.attr);
      } else if (n.kind == Kind::kGeneric) {
        for (AttrId a : acquire_order(n)) attrs_.Insert(a);
      }
      // A leaf ends the current subtree: flip the innermost lt-side split
      // to its ge side, unwinding splits whose ge side is already done.
      while (!stack.empty()) {
        if (!stack.back().in_ge) {
          stack.back().in_ge = true;
          break;
        }
        stack.pop_back();
      }
    }
  }
  depth_ = DepthOf(0);
}

size_t CompiledPlan::DepthOf(uint32_t i) const {
  const Node& n = nodes_[i];
  if (n.kind != Kind::kSplit) return 0;
  return 1 + std::max(DepthOf(i + 1), DepthOf(n.a));
}

}  // namespace caqp
