#include "plan/batch_plan.h"

#include "common/check.h"

namespace caqp {

namespace {

BatchPlanView::Op SeqOp(size_t arity) {
  using Op = BatchPlanView::Op;
  switch (arity) {
    case 1:
      return Op::kSeq1;
    case 2:
      return Op::kSeq2;
    case 3:
      return Op::kSeq3;
    case 4:
      return Op::kSeq4;
    default:
      return Op::kSeqN;
  }
}

}  // namespace

const char* BatchPlanView::OpName(Op op) {
  switch (op) {
    case Op::kSplitFirst:
      return "split_first";
    case Op::kSplitRepeat:
      return "split_repeat";
    case Op::kVerdictTrue:
      return "verdict_true";
    case Op::kVerdictFalse:
      return "verdict_false";
    case Op::kSeq1:
      return "seq1";
    case Op::kSeq2:
      return "seq2";
    case Op::kSeq3:
      return "seq3";
    case Op::kSeq4:
      return "seq4";
    case Op::kSeqN:
      return "seqn";
    case Op::kGeneric:
      return "generic";
  }
  return "unknown";
}

BatchPlanView::BatchPlanView(const CompiledPlan& plan) : plan_(&plan) {
  const size_t n = plan.NumNodes();

  // BFS from the root assigns level-major slots. The acquired-at-entry set
  // flows down unchanged except through first-acquisition splits, which add
  // their attribute for both children (the walk acquires before branching).
  struct Item {
    uint32_t plan_index = 0;
    AttrSet entry;
  };
  std::vector<Item> order;
  order.reserve(n);
  order.push_back(Item{0, AttrSet::None()});
  for (size_t head = 0; head < order.size(); ++head) {
    const Item it = order[head];  // by value: push_back may reallocate
    const CompiledPlan::Node& pn = plan.node(it.plan_index);
    if (pn.kind == CompiledPlan::Kind::kSplit) {
      AttrSet child = it.entry;
      if (pn.first_acquisition()) child.Insert(pn.attr);
      order.push_back(Item{CompiledPlan::LtChild(it.plan_index), child});
      order.push_back(Item{pn.a, child});
    }
  }
  // Every node is reachable from the root exactly once (it's a tree).
  CAQP_CHECK(order.size() == n);

  std::vector<uint32_t> slot_of(n, 0);
  for (uint32_t s = 0; s < order.size(); ++s) slot_of[order[s].plan_index] = s;

  nodes_.resize(n);
  for (uint32_t s = 0; s < order.size(); ++s) {
    const Item& it = order[s];
    const CompiledPlan::Node& pn = plan.node(it.plan_index);

    Node& bn = nodes_[s];
    bn.plan_index = it.plan_index;
    bn.entry_acquired = it.entry;
    switch (pn.kind) {
      case CompiledPlan::Kind::kSplit:
        bn.op = pn.first_acquisition() ? Op::kSplitFirst : Op::kSplitRepeat;
        bn.attr = pn.attr;
        bn.split_value = pn.split_value;
        bn.lt = slot_of[CompiledPlan::LtChild(it.plan_index)];
        bn.ge = slot_of[pn.a];
        break;
      case CompiledPlan::Kind::kVerdict:
        bn.op = pn.verdict() ? Op::kVerdictTrue : Op::kVerdictFalse;
        break;
      case CompiledPlan::Kind::kSequential: {
        const std::span<const Predicate> seq = plan.sequence(pn);
        if (seq.empty()) {
          // A vacuous conjunction is constant true; fold into the verdict
          // kernel rather than giving every kernel an empty-steps branch.
          bn.op = Op::kVerdictTrue;
          break;
        }
        bn.op = SeqOp(seq.size());
        bn.steps = static_cast<uint32_t>(steps_.size());
        bn.num_steps = static_cast<uint32_t>(seq.size());
        AttrSet acq = it.entry;
        for (const Predicate& p : seq) {
          AcqStep st;
          st.pred = p;
          st.attr = p.attr;
          st.acquired_before = acq;
          st.is_new = !acq.Contains(p.attr);
          acq.Insert(p.attr);
          steps_.push_back(st);
        }
        break;
      }
      case CompiledPlan::Kind::kGeneric: {
        const std::span<const AttrId> ord = plan.acquire_order(pn);
        bn.op = Op::kGeneric;
        bn.steps = static_cast<uint32_t>(steps_.size());
        bn.num_steps = static_cast<uint32_t>(ord.size());
        AttrSet acq = it.entry;
        for (const AttrId a : ord) {
          AcqStep st;
          st.attr = a;
          st.acquired_before = acq;
          st.is_new = !acq.Contains(a);
          acq.Insert(a);
          steps_.push_back(st);
        }
        break;
      }
    }
  }
}

}  // namespace caqp
