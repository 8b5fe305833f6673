// Web acquisition: the paper's Section 7 observation that the same machinery
// applies wherever per-attribute acquisition is expensive -- here, remote
// web services with high latency.
//
// Scenario: a travel-deal screener evaluates, per candidate trip,
//   price_ok AND seats_ok AND weather_ok
// where price comes from a slow fare API (800 ms), seat availability from a
// GDS call (600 ms), weather from a forecast API (300 ms) -- and two locally
// cached attributes, route popularity and season, are free-ish (5 ms). The
// cached attributes correlate with the expensive ones, so a conditional plan
// saves most of the latency.

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
  const AttrId popularity = schema.AddAttribute("popularity", 4, 5.0);
  const AttrId season = schema.AddAttribute("season", 4, 5.0);
  const AttrId price = schema.AddAttribute("price_band", 8, 800.0);
  const AttrId seats = schema.AddAttribute("seats_band", 4, 600.0);
  const AttrId weather = schema.AddAttribute("weather_band", 4, 300.0);

  // History: popular routes in high season are pricey and full; weather is
  // seasonal.
  Rng rng(11);
  Dataset history(schema);
  auto draw = [&](Rng& r) {
    const auto pop = static_cast<Value>(r.UniformInt(0, 3));
    const auto sea = static_cast<Value>(r.UniformInt(0, 3));
    const double demand = (pop + sea) / 6.0;  // 0..1
    const auto price_band = static_cast<Value>(std::min<int64_t>(
        7, std::max<int64_t>(0, static_cast<int64_t>(demand * 7 +
                                                     r.Gaussian(0, 1.0)))));
    const auto seat_band = static_cast<Value>(std::min<int64_t>(
        3, std::max<int64_t>(0, static_cast<int64_t>((1.0 - demand) * 3 +
                                                     r.Gaussian(0, 0.6)))));
    const auto weather_band = static_cast<Value>(std::min<int64_t>(
        3, std::max<int64_t>(0, sea + static_cast<int64_t>(
                                          r.Gaussian(0, 0.7)))));
    return Tuple{pop, sea, price_band, seat_band, weather_band};
  };
  for (int i = 0; i < 30000; ++i) history.Append(draw(rng));
  const auto [train, test] = history.SplitFraction(0.7);

  // Cheap deals with seats and decent weather.
  const Query query = Query::Conjunction({
      Predicate(price, 0, 2),    // low price bands
      Predicate(seats, 2, 3),    // seats available
      Predicate(weather, 1, 3),  // not terrible
  });
  std::printf("Query: %s\n\n", query.ToString(schema).c_str());

  DatasetEstimator estimator(train);
  PerAttributeCostModel latency(schema);
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;

  NaivePlanner naive(estimator, latency);
  SequentialPlanner corrseq(estimator, latency, optseq, "CorrSeq");
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &optseq;
  gopts.max_splits = 6;
  GreedyPlanner heuristic(estimator, latency, gopts);

  const CompiledPlan p_heur =
      CompiledPlan::Compile(heuristic.BuildPlan(query));
  std::printf("Conditional screening plan (%s):\n%s\n",
              PlanSummary(p_heur).c_str(), PrintPlan(p_heur, schema).c_str());

  std::printf("%-12s %18s\n", "planner", "mean latency (ms)");
  for (const auto& [name, plan] :
       {std::pair<const char*, CompiledPlan>{
            "Naive", CompiledPlan::Compile(naive.BuildPlan(query))},
        {"CorrSeq", CompiledPlan::Compile(corrseq.BuildPlan(query))},
        {"Heuristic-6", p_heur}}) {
    const auto res = EmpiricalPlanCost(plan, test, query, latency);
    std::printf("%-12s %18.1f\n", name, res.mean_cost);
  }
  (void)popularity;
  (void)season;
  return 0;
}
