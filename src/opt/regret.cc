#include "opt/regret.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"

namespace caqp {
namespace opt {

namespace {

/// Corner-scenario budget per build (see CornerScenarios).
constexpr size_t kMaxScenarios = 64;
/// Enumerate all n! orderings while the conjunctive query has at most this
/// many predicates; above it, only per-scenario greedy orderings.
constexpr size_t kMaxEnumeratedPredicates = 6;

double Clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

/// Sequential-plan candidate from predicate indices into `preds`.
Plan OrderingPlan(const std::vector<Predicate>& preds,
                  const std::vector<size_t>& order) {
  std::vector<Predicate> seq;
  seq.reserve(order.size());
  for (size_t i : order) seq.push_back(preds[i]);
  return Plan(PlanNode::Sequential(std::move(seq)));
}

}  // namespace

std::vector<Plan> RegretCandidatePlans(
    const Query& query, CondProbEstimator& estimator,
    const AcquisitionCostModel& cost_model,
    const std::vector<CostScenario>& scenarios, const Plan* point_plan,
    size_t max_enumerated) {
  std::vector<Plan> out;
  if (point_plan != nullptr) out.push_back(point_plan->Clone());
  if (!query.IsConjunctive()) return out;
  const std::vector<Predicate>& preds = query.predicates();
  const size_t n = preds.size();
  if (n == 0) return out;

  std::vector<std::vector<size_t>> orderings;
  const auto add_ordering = [&](const std::vector<size_t>& order) {
    if (std::find(orderings.begin(), orderings.end(), order) ==
        orderings.end()) {
      orderings.push_back(order);
    }
  };

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  if (n <= max_enumerated) {
    do {
      add_ordering(order);
    } while (std::next_permutation(order.begin(), order.end()));
  } else {
    // Too many predicates to enumerate: one greedy ordering per scenario,
    // ranking by the classic rule cost / (1 - p) with the scenario's
    // shifted pass probability (cheap, selective predicates first).
    const RangeVec full = estimator.schema().FullRanges();
    const AttrSet none;
    for (const CostScenario& s : scenarios) {
      std::vector<double> rank(n);
      for (size_t i = 0; i < n; ++i) {
        const double p = Clamp01(
            estimator.PredicateProbability(full, preds[i]) +
            s.shift[preds[i].attr]);
        const double drop = std::max(1e-9, 1.0 - p);
        rank[i] = cost_model.Cost(preds[i].attr, none) / drop;
      }
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) { return rank[a] < rank[b]; });
      add_ordering(order);
    }
  }

  out.reserve(out.size() + orderings.size());
  for (const std::vector<size_t>& o : orderings) {
    out.push_back(OrderingPlan(preds, o));
  }
  return out;
}

Plan RegretPlanner::BuildPlanImpl(const Query& query,
                                  obs::PlannerStats& stats) const {
  const UncertaintyBox box =
      options_.box_provider ? options_.box_provider() : options_.box;
  Plan point_plan = options_.point_planner->BuildPlan(query);

  if (box.degenerate() || !query.IsConjunctive()) {
    Stats s;
    s.degenerate_fallback = box.degenerate();
    s.candidates = 1;
    std::lock_guard<std::mutex> lock(diag_mu_);
    stats_ = s;
    return point_plan;
  }

  const std::vector<CostScenario> scenarios =
      CornerScenarios(box, kMaxScenarios);
  std::vector<Plan> candidates =
      RegretCandidatePlans(query, estimator_, cost_model_, scenarios,
                           &point_plan, kMaxEnumeratedPredicates);
  CAQP_CHECK(!candidates.empty());

  // cost[c][s]: candidate c priced at scenario s by the one Eq. 3 walk
  // (ExpectedPlanCost), on the compiled form.
  const size_t nc = candidates.size();
  const size_t ns = scenarios.size();
  std::vector<std::vector<double>> cost(nc, std::vector<double>(ns));
  for (size_t c = 0; c < nc; ++c) {
    const CompiledPlan compiled = CompiledPlan::Compile(candidates[c]);
    for (size_t s = 0; s < ns; ++s) {
      cost[c][s] =
          ExpectedPlanCost(compiled, estimator_, cost_model_, scenarios[s]);
    }
  }

  std::vector<double> best(ns, std::numeric_limits<double>::infinity());
  for (size_t s = 0; s < ns; ++s) {
    for (size_t c = 0; c < nc; ++c) best[s] = std::min(best[s], cost[c][s]);
  }

  size_t winner = 0;
  double winner_regret = std::numeric_limits<double>::infinity();
  double point_regret = 0.0;
  for (size_t c = 0; c < nc; ++c) {
    double r = 0.0;
    for (size_t s = 0; s < ns; ++s) r = std::max(r, cost[c][s] - best[s]);
    if (c == 0) point_regret = r;
    // Strict < keeps ties on the lowest index, i.e. the point plan.
    if (r < winner_regret) {
      winner_regret = r;
      winner = c;
    }
  }

  stats.candidates_tried = nc * ns;
  stats.expected_cost = cost[winner][0];  // scenario 0 is nominal

  Stats s;
  s.scenarios = ns;
  s.candidates = nc;
  s.worst_case_regret = winner_regret;
  s.point_plan_regret = point_regret;
  {
    std::lock_guard<std::mutex> lock(diag_mu_);
    stats_ = s;
  }
  return std::move(candidates[winner]);
}

}  // namespace opt
}  // namespace caqp
