// Figure 8(c): cumulative frequency of performance gain over the Lab
// experiments -- for each gain level x, the fraction of queries where the
// algorithm's plan was at least x times cheaper than Naive on held-out test
// data. Run on the full-size lab dataset (no exhaustive needed).

#include <cstdio>

#include "bench_util.h"
#include "lab_config.h"
#include "metrics.h"
#include "opt/greedy_plan.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "prob/dataset_estimator.h"

using namespace caqp;
using namespace caqp::bench;

int main(int argc, char** argv) {
  InitBench("fig8c_cumfreq", argc, argv);
  Banner("Figure 8(c): cumulative frequency of performance gain (Lab)");

  LabSetup lab = MakeFullLab();
  const Schema& schema = lab.train.schema();
  DatasetEstimator est(lab.train);
  PerAttributeCostModel cm(schema);

  LabQueryOptions qopts;
  qopts.num_queries = 95;
  const std::vector<Query> queries = GenerateLabQueries(
      lab.train, {lab.attrs.light, lab.attrs.temperature, lab.attrs.humidity},
      qopts);

  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  NaivePlanner naive(est, cm);
  SequentialPlanner corrseq(est, cm, optseq, "CorrSeq");
  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &optseq;
  gopts.max_splits = 5;
  GreedyPlanner h5(est, cm, gopts);
  gopts.max_splits = 10;
  GreedyPlanner h10(est, cm, gopts);

  std::printf("running %zu queries x 4 planners...\n", queries.size());
  const auto m_naive = RunWorkload(naive, queries, lab.train, lab.test, cm);
  const auto m_corr = RunWorkload(corrseq, queries, lab.train, lab.test, cm);
  const auto m_h5 = RunWorkload(h5, queries, lab.train, lab.test, cm);
  const auto m_h10 = RunWorkload(h10, queries, lab.train, lab.test, cm);

  std::vector<std::string> rows;
  for (const auto* ms : {&m_corr, &m_h5, &m_h10}) {
    const std::vector<double> gains = GainsVersus(m_naive, *ms);
    const GainStats stats = SummarizeGains(gains);
    std::printf("\n%s vs Naive: mean gain %.2fx, median %.2fx, best %.2fx, "
                "worst %.2fx\n",
                (*ms)[0].planner.c_str(), stats.mean, stats.median, stats.max,
                stats.min);
    std::printf("  gain >= x  (fraction of queries):\n");
    for (const auto& [x, frac] : CumulativeGainCurve(gains, 12)) {
      std::printf("    %6.2fx  %5.2f\n", x, frac);
      rows.push_back((*ms)[0].planner + "," + std::to_string(x) + "," +
                     std::to_string(frac));
    }
  }
  WriteCsv("fig8c_cumfreq", "planner,gain_threshold,fraction_at_least", rows);
  std::printf(
      "\nexpected shape: Heuristic curves dominate CorrSeq; a large\n"
      "fraction of queries gain >1x, with multi-x gains in the tail.\n");
  FinishBench();
  return 0;
}
