// Plan identity: DatasetEstimator's bitmap count index must hand the
// planners exactly the statistics a row walk does, so every planner built
// on it serializes byte-identical plans to the same planner built on the
// RowWalkEstimator reference (test_util.h).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/garden_gen.h"
#include "data/lab_gen.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "opt/cost_model.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "opt/regret.h"
#include "opt/split_points.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"
#include "test_util.h"

namespace caqp {
namespace {

/// Every planner under test, built over one estimator.
struct PlannerSet {
  PlannerSet(CondProbEstimator& est, const AcquisitionCostModel& cm,
             const SplitPointSet& splits, const SplitPointSet& exhaustive_splits)
      : naive(est, cm) {
    GreedyPlanner::Options g;
    g.split_points = &splits;
    g.max_splits = 5;
    g.seq_solver = &greedyseq;
    greedy_greedyseq = std::make_unique<GreedyPlanner>(est, cm, g);
    g.seq_solver = &optseq;
    greedy_optseq = std::make_unique<GreedyPlanner>(est, cm, g);
    ExhaustivePlanner::Options e;
    e.split_points = &exhaustive_splits;
    exhaustive = std::make_unique<ExhaustivePlanner>(est, cm, e);
    opt::RegretPlanner::Options r;
    r.point_planner = greedy_greedyseq.get();
    r.box = opt::UncertaintyBox::Uniform(0.1);
    regret = std::make_unique<opt::RegretPlanner>(est, cm, std::move(r));
  }

  std::vector<const Planner*> All() const {
    return {greedy_greedyseq.get(), greedy_optseq.get(), exhaustive.get(),
            &naive, regret.get()};
  }

  GreedySeqSolver greedyseq;
  OptSeqSolver optseq;
  NaivePlanner naive;
  std::unique_ptr<GreedyPlanner> greedy_greedyseq;
  std::unique_ptr<GreedyPlanner> greedy_optseq;
  std::unique_ptr<ExhaustivePlanner> exhaustive;
  std::unique_ptr<opt::RegretPlanner> regret;
};

/// Plans every query with every planner over both estimators and requires
/// identical wire bytes. The exhaustive planner gets its own (coarser) split
/// points to keep its DP small over the reference's row walks.
void ExpectIdenticalPlans(const Dataset& train,
                          const std::vector<Query>& queries,
                          const SplitPointSet& splits,
                          const SplitPointSet& exhaustive_splits) {
  const PerAttributeCostModel cm(train.schema());
  DatasetEstimator indexed(train);
  testing_util::RowWalkEstimator reference(train);
  const PlannerSet got(indexed, cm, splits, exhaustive_splits);
  const PlannerSet want(reference, cm, splits, exhaustive_splits);
  const std::vector<const Planner*> got_planners = got.All();
  const std::vector<const Planner*> want_planners = want.All();
  for (size_t p = 0; p < got_planners.size(); ++p) {
    const char* names[] = {"Greedy+GreedySeq", "Greedy+OptSeq", "Exhaustive",
                           "Naive", "Regret"};
    SCOPED_TRACE(names[p]);
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(q);
      const CompiledPlan got_plan =
          CompiledPlan::Compile(got_planners[p]->BuildPlan(queries[q]));
      const CompiledPlan want_plan =
          CompiledPlan::Compile(want_planners[p]->BuildPlan(queries[q]));
      EXPECT_EQ(SerializePlan(got_plan), SerializePlan(want_plan));
    }
  }
}

/// Two equi-spaced split points per attribute.
SplitPointSet TwoPointsEach(const Schema& schema) {
  return SplitPointSet::EquiSpaced(
      schema, std::vector<uint32_t>(schema.num_attributes(), 2));
}

TEST(PlanIdentityTest, GardenPlansMatchRowWalk) {
  GardenDataOptions gopts;
  gopts.num_motes = 2;
  gopts.epochs = 1500;
  const Dataset all = GenerateGardenData(gopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);
  GardenQueryOptions qopts;
  qopts.num_queries = 4;
  const std::vector<Query> queries =
      GenerateGardenQueries(schema, attrs.temperature, attrs.humidity, qopts);
  ExpectIdenticalPlans(
      train, queries,
      SplitPointSet::FromLog10Spsf(schema,
                                   static_cast<double>(schema.num_attributes())),
      TwoPointsEach(schema));
}

TEST(PlanIdentityTest, LabPlansMatchRowWalk) {
  LabDataOptions lopts;
  lopts.num_motes = 4;
  lopts.readings = 2000;
  const Dataset all = GenerateLabData(lopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  const LabAttrs attrs = ResolveLabAttrs(schema);
  LabQueryOptions qopts;
  qopts.num_queries = 4;
  const std::vector<Query> queries = GenerateLabQueries(
      train, {attrs.light, attrs.temperature, attrs.humidity}, qopts);
  ExpectIdenticalPlans(
      train, queries,
      SplitPointSet::FromLog10Spsf(schema,
                                   static_cast<double>(schema.num_attributes())),
      TwoPointsEach(schema));
}

TEST(PlanIdentityTest, SyntheticPlansMatchRowWalk) {
  SyntheticDataOptions sopts;
  sopts.n = 6;
  sopts.gamma = 2;
  sopts.tuples = 2000;
  const Dataset all = GenerateSyntheticData(sopts);
  const Dataset train = all.SplitFraction(0.6).first;
  const Schema& schema = all.schema();
  std::vector<Query> queries = {SyntheticAllExpensiveQuery(schema)};
  Rng rng(1907);
  for (int i = 0; i < 3; ++i) {
    queries.push_back(testing_util::RandomConjunctiveQuery(schema, rng, 4));
  }
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  ExpectIdenticalPlans(train, queries, splits, splits);
}

}  // namespace
}  // namespace caqp
