#include "opt/greedy_plan.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "plan/plan_serde.h"

namespace caqp {

struct GreedyPlanner::GNode {
  RangeVec ranges;
  double reach_prob = 1.0;

  // Leaf state: either the subproblem is determined, or a sequential base
  // plan over the undetermined predicates.
  bool determined = false;
  bool verdict = false;
  std::vector<Predicate> preds;        // undetermined predicates here
  MaskDistribution masks;              // their joint, conditioned on ranges
  double seq_cost = 0.0;               // expected cost of the base plan
  std::vector<Predicate> seq_order;    // base plan evaluation order

  // Locally optimal split (Figure 6) once GreedySplit has run.
  bool has_split = false;
  AttrId split_attr = kInvalidAttr;
  Value split_x = 0;
  double split_observe = 0.0;  // acquisition cost paid at the split node
  double split_p_lt = 0.0;     // P(X < x | ranges)
  double split_cost = 0.0;     // Equation (6) value
  std::unique_ptr<GNode> lt, ge;

  bool expanded = false;
};

namespace {

/// Minimum expected gain for a split to be adopted at all.
constexpr double kMinGain = 1e-9;

/// Re-indexes a mask distribution onto the predicate subset `keep` (bit k of
/// the result is predicate keep[k] of the original).
MaskDistribution ProjectMasks(const MaskDistribution& dist,
                              const std::vector<size_t>& keep) {
  MaskDistribution out;
  for (const auto& [mask, w] : dist.entries()) {
    uint64_t projected = 0;
    for (size_t k = 0; k < keep.size(); ++k) {
      if ((mask >> keep[k]) & 1) projected |= uint64_t{1} << k;
    }
    out.Add(projected, w);
  }
  out.Aggregate();
  return out;
}

MaskDistribution FromMap(const std::unordered_map<uint64_t, double>& map) {
  MaskDistribution out;
  for (const auto& [mask, w] : map) {
    if (w > 1e-12) out.Add(mask, w);
  }
  out.Aggregate();
  return out;
}

}  // namespace

void GreedyPlanner::SolveLeafState(GNode* node, const MaskDistribution& masks,
                                   obs::PlannerStats& stats) const {
  node->masks = masks;
  if (node->determined || node->preds.empty()) {
    node->seq_cost = 0.0;
    return;
  }
  SeqProblem prob;
  prob.preds = node->preds;
  prob.masks = &node->masks;
  prob.cost = MakeSeqCostFn(estimator_.schema(), cost_model_, node->ranges,
                            node->preds);
  ++stats.seq_solves;
  const SeqSolution sol = options_.seq_solver->Solve(prob);
  node->seq_cost = sol.expected_cost;
  node->seq_order = sol.OrderedPredicates(prob);
}

// Builds a child GNode for `parent` with attribute `attr` narrowed to
// `child_range`; `child_masks` is the parent-predicate-indexed joint
// restricted to the child. Returns the node with its undetermined predicates
// selected; the caller solves the base plan.
std::unique_ptr<GreedyPlanner::GNode> GreedyPlanner::MakeChildShell(
    const GNode& parent, AttrId attr, ValueRange child_range,
    const MaskDistribution& child_masks, MaskDistribution* projected_out) {
  auto child = std::make_unique<GreedyPlanner::GNode>();
  child->ranges = Refined(parent.ranges, attr, child_range);

  std::vector<size_t> keep;
  bool any_false = false;
  for (size_t j = 0; j < parent.preds.size(); ++j) {
    const Predicate& p = parent.preds[j];
    const Truth t = p.EvaluateOnRange(child->ranges[p.attr]);
    if (t == Truth::kFalse) {
      any_false = true;
      break;
    }
    if (t == Truth::kUnknown) keep.push_back(j);
  }
  if (any_false) {
    child->determined = true;
    child->verdict = false;
    return child;
  }
  if (keep.empty()) {
    child->determined = true;
    child->verdict = true;
    return child;
  }
  child->preds.reserve(keep.size());
  for (size_t j : keep) child->preds.push_back(parent.preds[j]);
  *projected_out = ProjectMasks(child_masks, keep);
  return child;
}

size_t GreedyPlanner::LeafBytes(const GNode& node) {
  const std::unique_ptr<PlanNode> leaf =
      node.determined ? PlanNode::Verdict(node.verdict)
                      : PlanNode::Sequential(node.seq_order);
  return PlanSizeBytes(CompiledPlan::Compile(*leaf));
}

void GreedyPlanner::GreedySplit(GNode* node, obs::PlannerStats& stats) const {
  node->has_split = false;
  if (node->determined || node->preds.empty()) return;
  if (node->masks.total() <= 0) return;  // No training mass: keep the leaf.
  ++stats.split_searches;

  const Schema& schema = estimator_.schema();
  const AttrSet acquired = AcquiredAttrs(schema, node->ranges);
  const double parent_total = node->masks.total();

  // A split is only worth keeping if it beats the sequential base plan.
  double cmin = node->seq_cost - kMinGain;

  for (size_t ai = 0; ai < schema.num_attributes(); ++ai) {
    const AttrId attr = static_cast<AttrId>(ai);
    const ValueRange r = node->ranges[attr];
    if (r.Width() <= 1) continue;

    const double observe =
        acquired.Contains(attr) ? 0.0 : cost_model_.Cost(attr, acquired);
    if (observe >= cmin) continue;

    const std::vector<Value>& pts = options_.split_points->PointsFor(attr);
    bool any_candidate = false;
    for (Value x : pts) {
      if (x > r.lo && x <= r.hi) {
        any_candidate = true;
        break;
      }
    }
    if (!any_candidate) continue;

    // Per-value predicate joints: one dataset pass per attribute, then each
    // candidate's "< x" side is an incremental prefix union (Section 5.2).
    const std::vector<MaskDistribution> per_value =
        estimator_.PerValuePredicateMasks(node->ranges, attr, node->preds);

    std::unordered_map<uint64_t, double> lt_map;
    double lt_total = 0.0;
    Value cursor = r.lo;
    for (Value x : pts) {
      if (x <= r.lo || x > r.hi) continue;
      while (cursor < x) {
        for (const auto& [mask, w] : per_value[cursor - r.lo].entries()) {
          lt_map[mask] += w;
          lt_total += w;
        }
        ++cursor;
      }
      ++stats.splits_considered;

      const double p_lt = lt_total / parent_total;
      const double p_ge = 1.0 - p_lt;

      const MaskDistribution lt_dist = FromMap(lt_map);
      // ">= x" side by subtraction from the parent joint (Eq. (7) analogue).
      std::unordered_map<uint64_t, double> ge_map;
      for (const auto& [mask, w] : node->masks.entries()) ge_map[mask] += w;
      for (const auto& [mask, w] : lt_map) ge_map[mask] -= w;
      const MaskDistribution ge_dist = FromMap(ge_map);

      MaskDistribution lt_proj;
      auto lt_child =
          MakeChildShell(*node, attr, ValueRange{r.lo, static_cast<Value>(x - 1)},
                         lt_dist, &lt_proj);
      SolveLeafState(lt_child.get(), lt_proj, stats);
      double cand = observe + p_lt * lt_child->seq_cost;
      if (cand >= cmin) continue;

      MaskDistribution ge_proj;
      auto ge_child = MakeChildShell(*node, attr, ValueRange{x, r.hi},
                                     ge_dist, &ge_proj);
      SolveLeafState(ge_child.get(), ge_proj, stats);
      cand += p_ge * ge_child->seq_cost;

      if (cand < cmin) {
        cmin = cand;
        node->has_split = true;
        node->split_attr = attr;
        node->split_x = x;
        node->split_observe = observe;
        node->split_p_lt = p_lt;
        node->split_cost = cand;
        node->lt = std::move(lt_child);
        node->ge = std::move(ge_child);
      }
    }
  }
}

std::unique_ptr<PlanNode> GreedyPlanner::Materialize(const GNode& node) const {
  if (node.expanded) {
    return PlanNode::Split(node.split_attr, node.split_x,
                           Materialize(*node.lt), Materialize(*node.ge));
  }
  if (node.determined) return PlanNode::Verdict(node.verdict);
  return PlanNode::Sequential(node.seq_order);
}

double GreedyPlanner::SubtreeExpectedCost(const GNode& node) const {
  if (!node.expanded) return node.determined ? 0.0 : node.seq_cost;
  return node.split_observe + node.split_p_lt * SubtreeExpectedCost(*node.lt) +
         (1.0 - node.split_p_lt) * SubtreeExpectedCost(*node.ge);
}

Plan GreedyPlanner::BuildPlanImpl(const Query& query,
                                  obs::PlannerStats& stats) const {
  const Schema& schema = estimator_.schema();
  CAQP_CHECK(query.ValidFor(schema));
  CAQP_CHECK(query.IsConjunctive());

  auto root = std::make_unique<GNode>();
  root->ranges = schema.FullRanges();
  root->reach_prob = 1.0;

  const Truth truth = query.EvaluateOnRanges(root->ranges);
  if (truth != Truth::kUnknown) {
    return Plan(PlanNode::Verdict(truth == Truth::kTrue));
  }
  root->preds = UndeterminedPredicates(query.predicates(), root->ranges);
  SolveLeafState(root.get(),
                 estimator_.PredicateMasks(root->ranges, root->preds), stats);
  GreedySplit(root.get(), stats);

  struct QueueEntry {
    double priority;
    GNode* node;
    bool operator<(const QueueEntry& o) const {
      return priority < o.priority;
    }
  };
  std::priority_queue<QueueEntry> queue;
  auto maybe_enqueue = [&](GNode* n) {
    if (!n->has_split) return;
    const double gain = n->reach_prob * (n->seq_cost - n->split_cost);
    if (gain > kMinGain) {
      queue.push({gain, n});
      stats.queue_high_water =
          std::max<uint64_t>(stats.queue_high_water, queue.size());
    }
  };
  maybe_enqueue(root.get());

  while (stats.splits_taken < options_.max_splits && !queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    GNode* node = top.node;
    CAQP_CHECK(!node->expanded);

    if (options_.size_penalty_alpha > 0 || options_.max_plan_bytes > 0) {
      // Section 2.4: size-aware expansion. `delta` is the marginal
      // serialized cost of replacing this leaf with a split node.
      const size_t before = LeafBytes(*node);
      // kind + attr + value + ">="-child-index varints (flat wire format).
      const size_t split_header = 1 + 2 + 2 + 2;
      const size_t after =
          split_header + LeafBytes(*node->lt) + LeafBytes(*node->ge);
      const double delta =
          static_cast<double>(after) - static_cast<double>(before);
      if (options_.size_penalty_alpha > 0 &&
          top.priority <= options_.size_penalty_alpha * delta) {
        ++stats.expansions_skipped;
        continue;  // The saving does not cover shipping the bigger plan.
      }
      if (options_.max_plan_bytes > 0) {
        const size_t current =
            PlanSizeBytes(CompiledPlan::Compile(*Materialize(*root)));
        if (current + static_cast<size_t>(std::max(0.0, delta)) >
            options_.max_plan_bytes) {
          ++stats.expansions_skipped;
          continue;  // Would no longer fit in device RAM.
        }
      }
    }

    node->expanded = true;
    if (stats.splits_taken == 0) stats.benefit_first = top.priority;
    stats.benefit_last = top.priority;
    stats.benefit_total += top.priority;
    ++stats.splits_taken;
    for (GNode* child : {node->lt.get(), node->ge.get()}) {
      child->reach_prob = estimator_.ReachProbability(child->ranges);
      GreedySplit(child, stats);
      maybe_enqueue(child);
    }
  }

  stats.expected_cost = SubtreeExpectedCost(*root);
  return Plan(Materialize(*root));
}

}  // namespace caqp
