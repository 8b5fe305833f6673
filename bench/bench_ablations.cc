// Ablations beyond the paper's figures, covering the design choices called
// out in DESIGN.md:
//
//  A. Estimator choice (Section 7 "Graphical Models"): plan quality vs
//     training-set size for direct counting, the Chow-Liu tree model, and
//     the independence approximation. Expectation: Chow-Liu degrades
//     gracefully at small training sizes; independence never finds useful
//     splits.
//  B. Plan-size penalty (Section 2.4): sweeping alpha trades plan bytes for
//     execution cost.
//  C. Sequential base solver: OptSeq vs GreedySeq as GreedyPlan's leaf
//     planner -- quality vs planning time.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "data/synthetic_gen.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/optseq.h"
#include "plan/plan_serde.h"
#include "prob/chow_liu.h"
#include "prob/dataset_estimator.h"
#include "prob/independent_estimator.h"

using namespace caqp;
using namespace caqp::bench;

namespace {

CompiledPlan BuildWith(CondProbEstimator& est, const AcquisitionCostModel& cm,
                       const SplitPointSet& splits,
                       const SequentialSolver& solver, const Query& q,
                       size_t max_splits) {
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &solver;
  opts.max_splits = max_splits;
  GreedyPlanner planner(est, cm, opts);
  return CompiledPlan::Compile(planner.BuildPlan(q));
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("ablations", argc, argv);
  Banner("Ablation A: estimator choice vs training-set size");
  {
    SyntheticDataOptions opts;
    opts.n = 10;
    opts.gamma = 4;
    opts.sel = 0.6;
    opts.tuples = 52000;
    const Dataset all = GenerateSyntheticData(opts);
    const auto [pool, test] = all.SplitAt(12000);
    const Query q = SyntheticAllExpensiveQuery(all.schema());
    PerAttributeCostModel cm(all.schema());
    const SplitPointSet splits = SplitPointSet::AllPoints(all.schema());
    GreedySeqSolver greedyseq;

    std::printf("%12s %12s %12s %12s\n", "train rows", "counting",
                "chow-liu", "independent");
    std::vector<std::string> rows;
    for (const size_t n : {50u, 150u, 500u, 2000u, 10000u}) {
      const Dataset train = pool.SplitAt(n).first;
      DatasetEstimator direct(train);
      ChowLiuEstimator::Options cl;
      cl.sample_count = 4096;
      ChowLiuEstimator smooth(train, cl);
      IndependentEstimator indep(train);

      const double c_direct = EmpiricalPlanCost(
          BuildWith(direct, cm, splits, greedyseq, q, 10), test, q, cm)
          .mean_cost;
      const double c_smooth = EmpiricalPlanCost(
          BuildWith(smooth, cm, splits, greedyseq, q, 10), test, q, cm)
          .mean_cost;
      const double c_indep = EmpiricalPlanCost(
          BuildWith(indep, cm, splits, greedyseq, q, 10), test, q, cm)
          .mean_cost;
      std::printf("%12zu %12.1f %12.1f %12.1f\n", n, c_direct, c_smooth,
                  c_indep);
      rows.push_back(std::to_string(n) + "," + std::to_string(c_direct) +
                     "," + std::to_string(c_smooth) + "," +
                     std::to_string(c_indep));
    }
    WriteCsv("ablation_estimator", "train_rows,counting,chowliu,independent",
             rows);
  }

  Banner("Ablation B: plan-size penalty alpha (Section 2.4)");
  {
    SyntheticDataOptions opts;
    opts.n = 12;
    opts.gamma = 3;
    opts.sel = 0.55;
    opts.tuples = 20000;
    const Dataset all = GenerateSyntheticData(opts);
    const auto [train, test] = all.SplitFraction(0.6);
    const Query q = SyntheticAllExpensiveQuery(all.schema());
    PerAttributeCostModel cm(all.schema());
    const SplitPointSet splits = SplitPointSet::AllPoints(all.schema());
    GreedySeqSolver greedyseq;
    DatasetEstimator est(train);

    std::printf("%10s %10s %12s %12s\n", "alpha", "splits", "plan bytes",
                "test cost");
    std::vector<std::string> rows;
    for (const double alpha : {0.0, 0.05, 0.2, 1.0, 5.0, 50.0}) {
      GreedyPlanner::Options gopts;
      gopts.split_points = &splits;
      gopts.seq_solver = &greedyseq;
      gopts.max_splits = 12;
      gopts.size_penalty_alpha = alpha;
      GreedyPlanner planner(est, cm, gopts);
      const CompiledPlan plan = CompiledPlan::Compile(planner.BuildPlan(q));
      const double cost = EmpiricalPlanCost(plan, test, q, cm).mean_cost;
      std::printf("%10.2f %10zu %12zu %12.1f\n", alpha, plan.NumSplits(),
                  PlanSizeBytes(plan), cost);
      rows.push_back(std::to_string(alpha) + "," +
                     std::to_string(plan.NumSplits()) + "," +
                     std::to_string(PlanSizeBytes(plan)) + "," +
                     std::to_string(cost));
    }
    WriteCsv("ablation_sizepenalty", "alpha,splits,plan_bytes,test_cost",
             rows);
  }

  Banner("Ablation C: OptSeq vs GreedySeq as the base solver");
  {
    SyntheticDataOptions opts;
    opts.n = 12;
    opts.gamma = 2;
    opts.sel = 0.6;
    opts.tuples = 20000;
    const Dataset all = GenerateSyntheticData(opts);
    const auto [train, test] = all.SplitFraction(0.6);
    const Query q = SyntheticAllExpensiveQuery(all.schema());  // 8 predicates
    PerAttributeCostModel cm(all.schema());
    const SplitPointSet splits = SplitPointSet::AllPoints(all.schema());
    DatasetEstimator est(train);

    std::printf("%12s %12s %14s\n", "base solver", "test cost",
                "plan time (ms)");
    std::vector<std::string> rows;
    OptSeqSolver optseq;
    GreedySeqSolver greedyseq;
    for (const auto& [name, solver] :
         {std::pair<const char*, const SequentialSolver*>{"OptSeq", &optseq},
          {"GreedySeq", &greedyseq}}) {
      const auto t0 = std::chrono::steady_clock::now();
      const CompiledPlan plan = BuildWith(est, cm, splits, *solver, q, 5);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double cost = EmpiricalPlanCost(plan, test, q, cm).mean_cost;
      std::printf("%12s %12.1f %14.1f\n", name, cost, ms);
      rows.push_back(std::string(name) + "," + std::to_string(cost) + "," +
                     std::to_string(ms));
    }
    WriteCsv("ablation_base_solver", "solver,test_cost,plan_ms", rows);
  }
  FinishBench();
  return 0;
}
