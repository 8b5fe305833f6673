// Compressed databases (paper Section 7 / Chen et al. [4]): when columns
// are stored compressed, "acquiring" an attribute means decompressing its
// block, which can dominate query time. Conditional plans reduce the number
// of decompressions exactly as they reduce sensor acquisitions.
//
// Scenario: a log-analytics table with a tiny uncompressed dictionary
// column (service id) and three heavily-compressed measure columns
// (latency, error rate, payload size). Service id strongly predicts all
// three, so the plan consults it before paying for any decompression.

#include <cstdio>

#include "common/rng.h"
#include "opt/greedy_plan.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

int main() {
  Schema schema;
  const AttrId service = schema.AddAttribute("service", 8, 1.0);
  const AttrId latency = schema.AddAttribute("latency_band", 8, 250.0);
  const AttrId errors = schema.AddAttribute("error_band", 4, 180.0);
  const AttrId payload = schema.AddAttribute("payload_band", 8, 220.0);

  // Historical blocks: services 0-2 are fast internal RPCs, 3-5 are user
  // APIs with higher latency and payload, 6-7 are flaky batch jobs.
  Rng rng(29);
  Dataset history(schema);
  auto clampv = [](int64_t v, uint32_t k) {
    return static_cast<Value>(std::max<int64_t>(0, std::min<int64_t>(k - 1, v)));
  };
  // Different failure signatures per tier: user APIs (tier 1) ship heavy
  // payloads but rarely error; batch jobs (tier 2) error often but carry
  // small payloads. Which predicate rejects a row fastest therefore
  // *depends on the service* -- the order-flip a conditional plan exploits.
  for (int i = 0; i < 40000; ++i) {
    const auto svc = static_cast<Value>(rng.UniformInt(0, 7));
    const double tier = svc < 3 ? 0.0 : (svc < 6 ? 1.0 : 2.0);
    const double payload_mean = (tier == 1.0) ? 5.5 : 1.5;
    const double error_mean = (tier == 2.0) ? 2.2 : 0.2;
    history.Append(
        {svc,
         clampv(static_cast<int64_t>(1 + 2.5 * tier + rng.Gaussian(0, 1.0)), 8),
         clampv(static_cast<int64_t>(error_mean + rng.Gaussian(0, 0.5)), 4),
         clampv(static_cast<int64_t>(payload_mean + rng.Gaussian(0, 1.2)),
                8)});
  }
  const auto [train, test] = history.SplitFraction(0.7);

  // Slow, erroring, heavy requests: an incident triage query.
  const Query query = Query::Conjunction({
      Predicate(latency, 4, 7),
      Predicate(errors, 1, 3),
      Predicate(payload, 4, 7),
  });
  std::printf("query: %s\n\n", query.ToString(schema).c_str());

  DatasetEstimator estimator(train);
  PerAttributeCostModel decompression(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;

  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &optseq;
  gopts.max_splits = 5;
  GreedyPlanner heuristic(estimator, decompression, gopts);
  NaivePlanner naive(estimator, decompression);

  const CompiledPlan p_heur =
      CompiledPlan::Compile(heuristic.BuildPlan(query));
  std::printf("conditional plan (%s):\n%s\n", PlanSummary(p_heur).c_str(),
              ExplainPlan(p_heur, estimator, decompression).c_str());

  const auto r_naive =
      EmpiricalPlanCost(CompiledPlan::Compile(naive.BuildPlan(query)), test,
                        query, decompression);
  const auto r_heur = EmpiricalPlanCost(p_heur, test, query, decompression);
  std::printf("mean decompression cost per row: naive=%.1f conditional=%.1f "
              "(%.2fx less work)\n",
              r_naive.mean_cost, r_heur.mean_cost,
              r_naive.mean_cost / r_heur.mean_cost);
  std::printf("verdict errors: %zu\n", r_heur.verdict_errors);
  (void)service;
  return 0;
}
