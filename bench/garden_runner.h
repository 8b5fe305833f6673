// Shared driver for the Garden-5 / Garden-11 benchmarks (Figures 10-11):
// generate the garden network trace, draw the paper's query workload
// (identical range predicates over every mote's temperature and humidity,
// randomly negated, widths covering domain/f for f in [1.25, 3.25]), run
// Naive / CorrSeq(GreedySeq) / Heuristic, and print per-query scatter rows
// plus gain summaries.

#ifndef CAQP_BENCH_GARDEN_RUNNER_H_
#define CAQP_BENCH_GARDEN_RUNNER_H_

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "data/garden_gen.h"
#include "data/workload.h"
#include "metrics.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "prob/dataset_estimator.h"

namespace caqp {
namespace bench {

struct GardenBenchConfig {
  size_t num_motes = 5;
  size_t epochs = 20000;
  size_t num_queries = 90;
  size_t max_splits = 5;
  std::string csv_name = "fig10_garden5";
};

inline void RunGardenBench(const GardenBenchConfig& cfg) {
  GardenDataOptions gopts;
  gopts.num_motes = cfg.num_motes;
  gopts.epochs = cfg.epochs;
  const Dataset all = GenerateGardenData(gopts);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  GardenQueryOptions qopts;
  qopts.num_queries = cfg.num_queries;
  const std::vector<Query> queries = GenerateGardenQueries(
      schema, attrs.temperature, attrs.humidity, qopts);
  std::printf("%zu motes -> %zu attributes; %zu queries x %zu predicates; "
              "train=%zu test=%zu\n",
              cfg.num_motes, schema.num_attributes(), queries.size(),
              queries[0].predicates().size(), train.num_rows(),
              test.num_rows());

  DatasetEstimator est(train);
  PerAttributeCostModel cm(schema);
  // SPSF = 10^n, as in the paper's garden experiments.
  const SplitPointSet splits = SplitPointSet::FromLog10Spsf(
      schema, static_cast<double>(schema.num_attributes()));
  GreedySeqSolver greedyseq;

  NaivePlanner naive(est, cm);
  SequentialPlanner corrseq(est, cm, greedyseq, "CorrSeq");
  GreedyPlanner::Options hopts;
  hopts.split_points = &splits;
  hopts.seq_solver = &greedyseq;
  hopts.max_splits = cfg.max_splits;
  GreedyPlanner heuristic(est, cm, hopts);

  std::printf("planning...\n");
  const auto m_naive = RunWorkload(naive, queries, train, test, cm);
  const auto m_corr = RunWorkload(corrseq, queries, train, test, cm);
  const auto m_heur = RunWorkload(heuristic, queries, train, test, cm);

  // Scatter rows (the paper plots Heuristic's cost against each baseline).
  std::vector<std::string> rows;
  std::printf("\nper-query test costs (first 10 shown):\n");
  std::printf("%5s %12s %12s %12s\n", "query", "Naive", "CorrSeq",
              heuristic.Name().c_str());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i < 10) {
      std::printf("%5zu %12.1f %12.1f %12.1f\n", i, m_naive[i].test_cost,
                  m_corr[i].test_cost, m_heur[i].test_cost);
    }
    rows.push_back(std::to_string(i) + "," +
                   std::to_string(m_naive[i].test_cost) + "," +
                   std::to_string(m_corr[i].test_cost) + "," +
                   std::to_string(m_heur[i].test_cost));
  }
  WriteCsv(cfg.csv_name, "query,naive_test,corrseq_test,heuristic_test", rows);

  for (const auto& [label, base] :
       {std::pair<const char*, const std::vector<Measurement>*>{
            "Naive", &m_naive},
        {"CorrSeq", &m_corr}}) {
    const std::vector<double> gains = GainsVersus(*base, m_heur);
    const GainStats stats = SummarizeGains(gains);
    size_t regressions = 0;
    for (double g : gains) regressions += g < 0.9 ? 1 : 0;
    std::printf("\n%s vs %s (test): mean %.2fx median %.2fx best %.2fx "
                "worst %.2fx; >10%% regressions: %zu/%zu\n",
                heuristic.Name().c_str(), label, stats.mean, stats.median,
                stats.max, stats.min, regressions, gains.size());
    std::printf("  gain >= x (fraction): ");
    for (const auto& [x, frac] : CumulativeGainCurve(gains, 6)) {
      std::printf(" %.2fx:%.2f", x, frac);
    }
    std::printf("\n");
  }
  double mean_naive = MeanTestCost(m_naive);
  double mean_heur = MeanTestCost(m_heur);
  std::printf("\nmean test cost: Naive %.1f, CorrSeq %.1f, %s %.1f "
              "(%.2fx vs Naive)\n",
              mean_naive, MeanTestCost(m_corr), heuristic.Name().c_str(),
              mean_heur, mean_naive / mean_heur);
}

}  // namespace bench
}  // namespace caqp

#endif  // CAQP_BENCH_GARDEN_RUNNER_H_
