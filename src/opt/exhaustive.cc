#include "opt/exhaustive.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "opt/greedyseq.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"

namespace caqp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNoNode = 0xffffffffu;
/// Safety valve: abort if the DP visits more subproblems than this.
constexpr uint64_t kMaxSubproblems = 20'000'000;

/// True iff every attribute referenced by the query has been acquired
/// (range narrowed) -- the second base case of Figure 5: all remaining tests
/// are free, so the completion cost is 0.
bool AllQueryAttrsAcquired(const Query& query, const Schema& schema,
                           const RangeVec& ranges) {
  for (AttrId a : query.ReferencedAttributes()) {
    if (IsFullRange(schema, ranges, a)) return false;
  }
  return true;
}

/// Acquisition order for generic (DNF) completion leaves: referenced
/// attributes, cheapest first, so early exits spend little.
std::vector<AttrId> GenericAcquireOrder(const Query& query,
                                        const Schema& schema) {
  std::vector<AttrId> order = query.ReferencedAttributes();
  std::stable_sort(order.begin(), order.end(), [&](AttrId a, AttrId b) {
    return schema.cost(a) < schema.cost(b);
  });
  return order;
}

/// DP-internal plan node: PlanNode's payload with uint32 child handles into
/// the arena instead of owning pointers. Generic leaves don't store their
/// residual query -- it is always the query being planned.
struct ArenaNode {
  PlanNode::Kind kind = PlanNode::Kind::kVerdict;
  bool verdict = false;
  AttrId attr = 0;
  Value split_value = 0;
  uint32_t lt = kNoNode;
  uint32_t ge = kNoNode;
  std::vector<Predicate> sequence;
  std::vector<AttrId> acquire_order;
};

struct SplitKey {
  AttrId attr;
  Value x;
  uint32_t lt;
  uint32_t ge;
  bool operator==(const SplitKey&) const = default;
};

struct SplitKeyHash {
  size_t operator()(const SplitKey& k) const {
    size_t h = HashCombine(k.attr, k.x);
    h = HashCombine(h, k.lt);
    return HashCombine(h, k.ge);
  }
};

}  // namespace

struct ExhaustivePlanner::BuildContext {
  struct CacheEntry {
    double cost = 0.0;
    uint32_t node = kNoNode;
  };

  std::unordered_map<RangeVec, CacheEntry, RangeVectorHash> cache;
  std::vector<ArenaNode> arena;
  /// Interners: identical splits/verdicts share one arena node, so the DAG
  /// the DP builds stays proportional to the number of distinct subplans.
  std::unordered_map<SplitKey, uint32_t, SplitKeyHash> split_intern;
  uint32_t verdicts[2] = {kNoNode, kNoNode};
  obs::PlannerStats& stats;

  explicit BuildContext(obs::PlannerStats& s) : stats(s) {}

  uint32_t Verdict(bool v) {
    uint32_t& h = verdicts[v ? 1 : 0];
    if (h == kNoNode) {
      h = static_cast<uint32_t>(arena.size());
      ArenaNode n;
      n.kind = PlanNode::Kind::kVerdict;
      n.verdict = v;
      arena.push_back(std::move(n));
    }
    return h;
  }

  uint32_t Sequential(std::vector<Predicate> seq) {
    ArenaNode n;
    n.kind = PlanNode::Kind::kSequential;
    n.sequence = std::move(seq);
    arena.push_back(std::move(n));
    return static_cast<uint32_t>(arena.size() - 1);
  }

  uint32_t Generic(std::vector<AttrId> order) {
    ArenaNode n;
    n.kind = PlanNode::Kind::kGeneric;
    n.acquire_order = std::move(order);
    arena.push_back(std::move(n));
    return static_cast<uint32_t>(arena.size() - 1);
  }

  uint32_t Split(AttrId attr, Value x, uint32_t lt, uint32_t ge) {
    const SplitKey key{attr, x, lt, ge};
    if (auto it = split_intern.find(key); it != split_intern.end()) {
      return it->second;
    }
    ArenaNode n;
    n.kind = PlanNode::Kind::kSplit;
    n.attr = attr;
    n.split_value = x;
    n.lt = lt;
    n.ge = ge;
    arena.push_back(std::move(n));
    const uint32_t h = static_cast<uint32_t>(arena.size() - 1);
    split_intern.emplace(key, h);
    return h;
  }

  /// Absorbs an externally-built leaf (e.g. from SolveSequentialLeaf) into
  /// the arena. Leaves only; the DP never produces external subtrees.
  uint32_t Absorb(const PlanNode& n) {
    switch (n.kind) {
      case PlanNode::Kind::kVerdict:
        return Verdict(n.verdict);
      case PlanNode::Kind::kSequential:
        return Sequential(n.sequence);
      case PlanNode::Kind::kGeneric:
        return Generic(n.acquire_order);
      case PlanNode::Kind::kSplit:
        return Split(n.attr, n.split_value, Absorb(*n.lt), Absorb(*n.ge));
    }
    CAQP_CHECK(false);
    return kNoNode;
  }

  /// Reconstructs the pointer tree for a handle. Interned (shared) arena
  /// nodes expand to independent subtrees, matching what the pre-arena DP
  /// produced via deep clones -- but only once, for the winning root.
  std::unique_ptr<PlanNode> Materialize(uint32_t h, const Query& query) const {
    const ArenaNode& n = arena[h];
    switch (n.kind) {
      case PlanNode::Kind::kVerdict:
        return PlanNode::Verdict(n.verdict);
      case PlanNode::Kind::kSequential:
        return PlanNode::Sequential(n.sequence);
      case PlanNode::Kind::kGeneric:
        return PlanNode::Generic(query, n.acquire_order);
      case PlanNode::Kind::kSplit:
        return PlanNode::Split(n.attr, n.split_value,
                               Materialize(n.lt, query),
                               Materialize(n.ge, query));
    }
    CAQP_CHECK(false);
    return nullptr;
  }

  /// A leaf that decides the query correctly from `ranges` onward,
  /// regardless of any probability estimates. Used for branches with zero
  /// training mass: they may still be reached by unseen test tuples and
  /// must not err.
  uint32_t CorrectLeaf(const Query& query, const Schema& schema,
                       const RangeVec& ranges) {
    const Truth t = query.EvaluateOnRanges(ranges);
    if (t != Truth::kUnknown) return Verdict(t == Truth::kTrue);
    if (query.IsConjunctive()) {
      return Sequential(UndeterminedPredicates(query.predicates(), ranges));
    }
    return Generic(GenericAcquireOrder(query, schema));
  }
};

std::pair<double, uint32_t> ExhaustivePlanner::CompletionLeaf(
    const Query& query, const RangeVec& ranges, BuildContext& ctx) const {
  if (query.IsConjunctive()) {
    const size_t m =
        UndeterminedPredicates(query.predicates(), ranges).size();
    if (m <= 14) {
      SequentialLeaf leaf = SolveSequentialLeaf(query, ranges, estimator_,
                                                cost_model_, optseq_);
      return {leaf.expected_cost, ctx.Absorb(*leaf.leaf)};
    }
    GreedySeqSolver greedy;
    SequentialLeaf leaf =
        SolveSequentialLeaf(query, ranges, estimator_, cost_model_, greedy);
    return {leaf.expected_cost, ctx.Absorb(*leaf.leaf)};
  }
  std::vector<AttrId> order = GenericAcquireOrder(query, estimator_.schema());
  // Priced by the Eq. 3 walk over a one-leaf plan.
  const CompiledPlan leaf =
      CompiledPlan::Compile(*PlanNode::Generic(query, order));
  const double cost =
      ExpectedSubplanCost(leaf, 0, ranges, estimator_, cost_model_);
  return {cost, ctx.Generic(std::move(order))};
}

std::pair<double, uint32_t> ExhaustivePlanner::Solve(const Query& query,
                                                     const RangeVec& ranges,
                                                     BuildContext& ctx) const {
  const Schema& schema = estimator_.schema();

  // Base case 1: ranges determine the truth of the WHERE clause.
  const Truth truth = query.EvaluateOnRanges(ranges);
  if (truth != Truth::kUnknown) {
    return {0.0, ctx.Verdict(truth == Truth::kTrue)};
  }
  // Base case 2: every query attribute acquired; residual tests are free.
  if (AllQueryAttrsAcquired(query, schema, ranges)) {
    return {0.0, ctx.CorrectLeaf(query, schema, ranges)};
  }

  if (auto it = ctx.cache.find(ranges); it != ctx.cache.end()) {
    ++ctx.stats.memo_hits;
    return {it->second.cost, it->second.node};
  }
  ++ctx.stats.memo_misses;
  CAQP_CHECK_LE(ctx.stats.memo_misses, kMaxSubproblems);

  double cmin = kInf;
  uint32_t best = kNoNode;

  // Candidate 0: finish with the optimal sequential completion (see header).
  {
    auto [cost, node] = CompletionLeaf(query, ranges, ctx);
    if (cost < cmin) {
      cmin = cost;
      best = node;
    }
  }

  const AttrSet acquired = AcquiredAttrs(schema, ranges);
  const size_t n = schema.num_attributes();
  for (size_t ai = 0; ai < n; ++ai) {
    const AttrId attr = static_cast<AttrId>(ai);
    const ValueRange r = ranges[attr];
    if (r.Width() <= 1) continue;  // Nothing left to split.

    const double observe =
        acquired.Contains(attr) ? 0.0 : cost_model_.Cost(attr, acquired);
    if (observe >= cmin) {
      ++ctx.stats.bound_prunes;
      continue;
    }

    const Histogram h = estimator_.Marginal(ranges, attr);
    if (h.total() <= 0) continue;  // Unreachable; completion leaf covers it.

    for (Value x : options_.split_points->PointsFor(attr)) {
      if (x <= r.lo || x > r.hi) continue;
      ++ctx.stats.candidates_tried;

      const ValueRange lt_r{r.lo, static_cast<Value>(x - 1)};
      const ValueRange ge_r{x, r.hi};
      const double p_lt = h.RangeCount(lt_r) / h.total();
      const double p_ge = 1.0 - p_lt;

      double acc = observe;
      uint32_t lt_node = kNoNode, ge_node = kNoNode;

      const RangeVec lt_ranges = Refined(ranges, attr, lt_r);
      if (p_lt > 0) {
        auto [cost, node] = Solve(query, lt_ranges, ctx);
        acc += p_lt * cost;
        lt_node = node;
      } else {
        lt_node = ctx.CorrectLeaf(query, schema, lt_ranges);
      }
      // Exact child costs make abandoning a partially-costed candidate safe.
      if (acc >= cmin) {
        ++ctx.stats.bound_prunes;
        continue;
      }

      const RangeVec ge_ranges = Refined(ranges, attr, ge_r);
      if (p_ge > 0) {
        auto [cost, node] = Solve(query, ge_ranges, ctx);
        acc += p_ge * cost;
        ge_node = node;
      } else {
        ge_node = ctx.CorrectLeaf(query, schema, ge_ranges);
      }

      if (acc < cmin) {
        cmin = acc;
        best = ctx.Split(attr, x, lt_node, ge_node);
      }
    }
  }

  // The completion leaf always yields a finite candidate, so `best` exists.
  CAQP_CHECK(best != kNoNode);
  ctx.cache[ranges] = BuildContext::CacheEntry{cmin, best};
  return {cmin, best};
}

Plan ExhaustivePlanner::BuildPlanImpl(const Query& query,
                                      obs::PlannerStats& stats) const {
  CAQP_CHECK(query.ValidFor(estimator_.schema()));
  BuildContext ctx(stats);
  auto [cost, root] = Solve(query, estimator_.schema().FullRanges(), ctx);
  CAQP_CHECK(root != kNoNode);
  stats.expected_cost = cost;
  return Plan(ctx.Materialize(root, query));
}

}  // namespace caqp
