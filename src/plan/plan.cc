#include "plan/plan.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/registry.h"

namespace caqp {

std::unique_ptr<PlanNode> PlanNode::Verdict(bool v) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kVerdict;
  n->verdict = v;
  return n;
}

std::unique_ptr<PlanNode> PlanNode::Sequential(std::vector<Predicate> seq) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kSequential;
  n->sequence = std::move(seq);
  return n;
}

std::unique_ptr<PlanNode> PlanNode::Split(AttrId attr, Value split_value,
                                          std::unique_ptr<PlanNode> lt,
                                          std::unique_ptr<PlanNode> ge) {
  CAQP_CHECK(lt != nullptr);
  CAQP_CHECK(ge != nullptr);
  CAQP_CHECK_GE(split_value, 1);  // X >= 0 would be a degenerate split.
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kSplit;
  n->attr = attr;
  n->split_value = split_value;
  n->lt = std::move(lt);
  n->ge = std::move(ge);
  return n;
}

std::unique_ptr<PlanNode> PlanNode::Generic(Query q,
                                            std::vector<AttrId> order) {
  auto n = std::make_unique<PlanNode>();
  n->kind = Kind::kGeneric;
  n->residual_query = std::move(q);
  n->acquire_order = std::move(order);
  return n;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  // Counted so the serve/net hot paths can assert they never deep-copy a
  // plan (bench_exec and serve_test watch this stay flat across requests).
  CAQP_OBS_COUNTER_INC("plan.node_clones");
  auto n = std::make_unique<PlanNode>();
  n->kind = kind;
  n->attr = attr;
  n->split_value = split_value;
  n->verdict = verdict;
  n->sequence = sequence;
  n->residual_query = residual_query;
  n->acquire_order = acquire_order;
  if (lt) n->lt = lt->Clone();
  if (ge) n->ge = ge->Clone();
  return n;
}

namespace {

size_t CountNodes(const PlanNode& n) {
  if (n.kind != PlanNode::Kind::kSplit) return 1;
  return 1 + CountNodes(*n.lt) + CountNodes(*n.ge);
}

size_t CountSplits(const PlanNode& n) {
  if (n.kind != PlanNode::Kind::kSplit) return 0;
  return 1 + CountSplits(*n.lt) + CountSplits(*n.ge);
}

size_t NodeDepth(const PlanNode& n) {
  if (n.kind != PlanNode::Kind::kSplit) return 0;
  return 1 + std::max(NodeDepth(*n.lt), NodeDepth(*n.ge));
}

}  // namespace

size_t Plan::NumNodes() const { return CountNodes(*root_); }
size_t Plan::NumSplits() const { return CountSplits(*root_); }
size_t Plan::Depth() const { return NodeDepth(*root_); }

bool Plan::VerdictFor(const Tuple& t) const {
  const PlanNode* n = root_.get();
  while (n->kind == PlanNode::Kind::kSplit) {
    n = (t[n->attr] >= n->split_value) ? n->ge.get() : n->lt.get();
  }
  switch (n->kind) {
    case PlanNode::Kind::kVerdict:
      return n->verdict;
    case PlanNode::Kind::kSequential:
      for (const Predicate& p : n->sequence) {
        if (!p.Matches(t)) return false;
      }
      return true;
    case PlanNode::Kind::kGeneric:
      return n->residual_query.Matches(t);
    case PlanNode::Kind::kSplit:
      break;
  }
  CAQP_CHECK(false);
  return false;
}

}  // namespace caqp
