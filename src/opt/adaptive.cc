#include "opt/adaptive.h"

#include "exec/executor.h"
#include "plan/plan_cost.h"
#include "prob/dataset_estimator.h"

namespace caqp {

AdaptivePlanner::AdaptivePlanner(const Schema& schema, const Query& query,
                                 const AcquisitionCostModel& cost_model,
                                 Options options)
    : schema_(schema),
      query_(query),
      cost_model_(cost_model),
      options_(options) {
  CAQP_CHECK(options_.split_points != nullptr);
  CAQP_CHECK(options_.seq_solver != nullptr);
  CAQP_CHECK(query_.IsConjunctive());
  CAQP_CHECK(query_.ValidFor(schema_));
  // Cold start: evaluate the query predicates in declaration order until the
  // first window provides statistics.
  plan_ = CompiledPlan::Compile(*PlanNode::Sequential(query_.predicates()));
}

double AdaptivePlanner::Observe(const Tuple& tuple) {
  CAQP_CHECK(schema_.ValidTuple(tuple));
  TupleSource source(tuple);
  const ExecutionResult res =
      ExecutePlan(plan_, schema_, cost_model_, source);
  ++stats_.tuples_seen;
  stats_.total_cost += res.cost;

  window_.push_back(tuple);
  if (window_.size() > options_.window_size) window_.pop_front();
  if (++since_replan_ >= options_.replan_interval &&
      window_.size() >= options_.replan_interval) {
    since_replan_ = 0;
    MaybeReplan();
  }
  return res.cost;
}

void AdaptivePlanner::MaybeReplan() {
  ++stats_.replans_considered;
  Dataset window_data(schema_);
  for (const Tuple& t : window_) window_data.Append(t);
  DatasetEstimator estimator(window_data);

  GreedyPlanner::Options gopts;
  gopts.split_points = options_.split_points;
  gopts.seq_solver = options_.seq_solver;
  gopts.max_splits = options_.max_splits;
  GreedyPlanner planner(estimator, cost_model_, gopts);
  CompiledPlan candidate = CompiledPlan::Compile(planner.BuildPlan(query_));

  const double current_cost =
      ExpectedPlanCost(plan_, estimator, cost_model_);
  const double candidate_cost =
      ExpectedPlanCost(candidate, estimator, cost_model_);
  if (candidate_cost <
      current_cost * (1.0 - options_.improvement_threshold)) {
    plan_ = std::move(candidate);
    ++stats_.replans_adopted;
    if (options_.on_plan_adopted) options_.on_plan_adopted();
  }
}

}  // namespace caqp
