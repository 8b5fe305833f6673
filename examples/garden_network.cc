// Garden network: full sensor-network simulation (Figure 4 architecture).
// A basestation trains a conditional plan from garden history, radios it to
// motes (paying per-byte dissemination energy -- the alpha * zeta(P) term of
// Section 2.4), and runs a continuous query for many epochs. We compare a
// naive plan against the Heuristic plan on total network energy.

#include <cstdio>
#include <memory>

#include "data/garden_gen.h"
#include "data/workload.h"
#include "net/basestation.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "plan/plan_printer.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

namespace {

/// Runs one dissemination + continuous-query round and returns total mote
/// acquisition energy.
double RunNetwork(const CompiledPlan& plan, const Schema& schema,
                  const AcquisitionCostModel& cm, const Dataset& live,
                  size_t epochs) {
  Radio radio(Radio::Options{.cost_per_byte = 0.05});
  Basestation base(schema, cm, radio);
  std::vector<std::unique_ptr<Mote>> motes;
  std::vector<Mote*> ptrs;
  // One logical "network state" tuple per epoch; a single executor node
  // evaluates the network-wide query (the paper treats the whole network as
  // one 16/34-attribute relation).
  motes.push_back(std::make_unique<Mote>(
      0, schema, cm, [&live](size_t epoch, AttrId attr) {
        return live.at(static_cast<RowId>(epoch % live.num_rows()), attr);
      }));
  ptrs.push_back(motes.back().get());
  base.Disseminate(plan, ptrs);

  const auto reports = base.RunContinuousQuery(ptrs, epochs);
  double acquisition = 0;
  size_t matches = 0;
  for (const auto& rep : reports) {
    acquisition += rep.acquisition_cost;
    matches += rep.matches;
  }
  std::printf("    plan bytes=%zu, radio bytes=%zu, matches=%zu/%zu epochs\n",
              PlanSizeBytes(plan), radio.bytes_sent(), matches, epochs);
  std::printf("    mote energy: acquisition+radio = %.0f units\n",
              motes[0]->energy().spent());
  return acquisition;
}

}  // namespace

int main() {
  GardenDataOptions garden;
  garden.num_motes = 5;
  garden.epochs = 20000;
  const Dataset all = GenerateGardenData(garden);
  const auto [train, test] = all.SplitFraction(0.6);
  const Schema& schema = all.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  // One network-wide query: every mote warm AND every mote humid -- a
  // muggy spell. Warmth holds by day, high humidity by night, so the hour
  // flips which sensor type is likely to reject a tuple: a conditional
  // plan branches on the (free) hour and probes the likely-failing sensor
  // type first, while sequential plans must commit to one order.
  Conjunct preds;
  for (AttrId a : attrs.temperature) {
    preds.emplace_back(a, 5, 11);  // warm half of the domain
  }
  for (AttrId a : attrs.humidity) {
    preds.emplace_back(a, 5, 11);  // humid half
  }
  const Query query = Query::Conjunction(std::move(preds));
  std::printf("Query (%zu predicates): %s\n\n", query.predicates().size(),
              query.ToString(schema).c_str());

  DatasetEstimator estimator(train);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits =
      SplitPointSet::FromLog10Spsf(schema, schema.num_attributes());
  GreedySeqSolver greedyseq;

  NaivePlanner naive(estimator, cost_model);
  const CompiledPlan p_naive = CompiledPlan::Compile(naive.BuildPlan(query));

  GreedyPlanner::Options gopts;
  gopts.split_points = &splits;
  gopts.seq_solver = &greedyseq;
  gopts.max_splits = 5;
  GreedyPlanner heuristic(estimator, cost_model, gopts);
  const CompiledPlan p_heur =
      CompiledPlan::Compile(heuristic.BuildPlan(query));

  const size_t epochs = 4000;
  std::printf("Naive plan over %zu epochs:\n", epochs);
  const double e_naive =
      RunNetwork(p_naive, schema, cost_model, test, epochs);
  std::printf("Heuristic-5 plan over %zu epochs:\n", epochs);
  const double e_heur = RunNetwork(p_heur, schema, cost_model, test, epochs);

  std::printf(
      "\nacquisition energy: naive=%.0f heuristic=%.0f  (%.2fx cheaper)\n",
      e_naive, e_heur, e_naive / e_heur);
  return 0;
}
