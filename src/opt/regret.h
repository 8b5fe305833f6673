// Minmax-regret planning over an uncertainty box (opt/uncertainty.h).
//
// The regret of a plan P at a scenario s of the box is
//     regret(P, s) = ExpectedPlanCost(P, s) - min_Q ExpectedPlanCost(Q, s)
// where Q ranges over the candidate plan set; RegretPlanner picks the
// candidate minimizing max_s regret(P, s) over the box's corner scenarios
// (Alyoubi/Helmer/Wood, arXiv 1507.08257, applied to acquisitional
// conditional plans). Minmax regret — rather than plain minmax cost — is
// what keeps the robust plan competitive on *every* scenario instead of
// hedging only against the single most expensive corner.
//
// Candidate set: the wrapped point planner's plan (always candidate 0, and
// the tie-break winner, so a degenerate box reproduces the point plan
// bit-identically) plus, for conjunctive queries, sequential orderings of
// the query's predicates — all n! of them when n is small, otherwise the
// per-scenario greedy orderings (rank by shifted cost / (1 - p'), the
// classic selectivity-ordering rule evaluated at each corner). Conditional
// plans from the point planner keep their splits; the ordering candidates
// give the regret sweep the alternatives a drifted world makes attractive.
//
// Falls back to the point planner verbatim when the box is degenerate or
// the query is not conjunctive. Each build's scenario and candidate counts,
// both regrets and the fallback flag land in the regret section of
// planner_stats() (obs/planner_stats.h).

#ifndef CAQP_OPT_REGRET_H_
#define CAQP_OPT_REGRET_H_

#include <functional>
#include <vector>

#include "opt/planner.h"
#include "opt/uncertainty.h"

namespace caqp {
namespace opt {

class RegretPlanner : public Planner {
 public:
  struct Options {
    /// Point-estimate planner supplying candidate 0 and the degenerate-box
    /// fallback. Required; must outlive this planner and share its
    /// estimator's thread-safety story (opt/planner.h).
    const Planner* point_planner = nullptr;
    /// The uncertainty box to plan under when no provider is set.
    UncertaintyBox box;
    /// When set, called once per BuildPlan to fetch the current box
    /// (overrides `box`). Lets serve workers follow a SharedUncertaintyBox
    /// the drift loop widens at runtime.
    std::function<UncertaintyBox()> box_provider;
  };

  RegretPlanner(CondProbEstimator& estimator,
                const AcquisitionCostModel& cost_model, Options options)
      : estimator_(estimator), cost_model_(cost_model),
        options_(std::move(options)) {
    CAQP_CHECK(options_.point_planner != nullptr);
  }

  std::string Name() const override { return "Regret"; }
  CondProbEstimator* estimator() const override { return &estimator_; }

 protected:
  Plan BuildPlanImpl(const Query& query,
                     obs::PlannerStats& stats) const override;

 private:
  CondProbEstimator& estimator_;
  const AcquisitionCostModel& cost_model_;
  Options options_;
};

/// The candidate set RegretPlanner sweeps, exposed so bench_regret can
/// score other planners' plans against the same reference set. `point_plan`
/// (cloned as candidate 0 when non-null) plus sequential orderings of the
/// query's predicates: all permutations when there are at most
/// `max_enumerated` predicates, else the deduped per-scenario greedy
/// orderings. Non-conjunctive queries yield only the point plan.
std::vector<Plan> RegretCandidatePlans(const Query& query,
                                       CondProbEstimator& estimator,
                                       const AcquisitionCostModel& cost_model,
                                       const std::vector<CostScenario>& scenarios,
                                       const Plan* point_plan,
                                       size_t max_enumerated = 6);

}  // namespace opt
}  // namespace caqp

#endif  // CAQP_OPT_REGRET_H_
