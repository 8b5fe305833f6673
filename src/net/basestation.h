// Basestation: the well-provisioned node of Figure 4. Collects historical
// tuples, trains conditional plans with the greedy planner and compiles
// them, serializes and disseminates the CompiledPlan over the radio, and
// aggregates per-epoch results and energy statistics for a continuous query.

#ifndef CAQP_NET_BASESTATION_H_
#define CAQP_NET_BASESTATION_H_

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "net/mote.h"
#include "net/radio.h"
#include "opt/greedy_plan.h"

namespace caqp {

class Basestation {
 public:
  Basestation(const Schema& schema, const AcquisitionCostModel& cost_model,
              Radio& radio, double energy_budget = -1.0)
      : schema_(schema),
        cost_model_(cost_model),
        radio_(radio),
        history_(schema),
        energy_(energy_budget) {}

  /// Adds a historical tuple to the training store.
  void CollectHistory(const Tuple& t) { history_.Append(t); }
  void CollectHistory(const Dataset& data);
  const Dataset& history() const { return history_; }

  /// Trains a conditional plan for `query` from the collected history and
  /// returns it compiled, the form Disseminate ships.
  CompiledPlan TrainPlan(const Query& query, const SplitPointSet& splits,
                         const SequentialSolver& solver, size_t max_splits,
                         double size_penalty_alpha = 0.0);

  /// Serializes `plan` and transmits it to every mote; returns how many
  /// motes installed it successfully (radio loss/corruption and energy
  /// exhaustion can all prevent installation).
  size_t Disseminate(const CompiledPlan& plan, std::vector<Mote*>& motes);

  struct DisseminateOptions {
    /// Total plan transmissions attempted per mote, including the first.
    int max_attempts = 1;
    /// When true, an install only counts once the mote's ack message makes
    /// it back to the basestation; an unacknowledged install is retried
    /// (plan installation is idempotent, so duplicate deliveries are safe).
    bool require_ack = false;
    /// Energy charged to the basestation per re-attempt, scaled by the
    /// attempt number (models idle listening during the backoff window).
    double backoff_cost = 0.0;
  };

  /// Reliable dissemination: like the overload above, but retransmits per
  /// `opts` when delivery (or, with require_ack, the ack) fails. Returns the
  /// number of motes whose install was confirmed. Retransmissions are
  /// counted on the `net.retransmissions` counter.
  size_t Disseminate(const CompiledPlan& plan, std::vector<Mote*>& motes,
                     const DisseminateOptions& opts);

  struct EpochReport {
    size_t epoch = 0;
    size_t motes_reporting = 0;  ///< motes that executed the plan this epoch
    size_t matches = 0;          ///< defined-true verdicts delivered back
    size_t unknown_verdicts = 0; ///< executions degraded to Unknown/aborted
    size_t browned_out = 0;      ///< motes that ran out of energy this epoch
    size_t unreachable = 0;      ///< matching motes whose result msg was lost
    double acquisition_cost = 0; ///< summed over motes
  };

  /// Runs `epochs` rounds: each mote executes its plan; matching motes send
  /// a (fixed-size) result message back, charged to the radio.
  std::vector<EpochReport> RunContinuousQuery(std::vector<Mote*>& motes,
                                              size_t epochs,
                                              size_t result_message_bytes = 8);

  struct LimitResult {
    size_t matches = 0;        ///< results delivered (<= limit)
    size_t epochs_run = 0;     ///< epochs consumed before stopping
    double acquisition_cost = 0.0;
  };

  /// Section 7 "LIMIT" extension: runs epochs until `limit` matching
  /// results have been delivered (or `max_epochs` elapse). Within an epoch,
  /// motes are polled in order and polling stops as soon as the limit is
  /// reached -- conditional plans shrink the per-poll cost, so LIMIT
  /// queries finish with far fewer acquisitions.
  LimitResult RunLimitQuery(std::vector<Mote*>& motes, size_t limit,
                            size_t max_epochs,
                            size_t result_message_bytes = 8);

  EnergyMeter& energy() { return energy_; }

 private:
  const Schema& schema_;
  const AcquisitionCostModel& cost_model_;
  Radio& radio_;
  Dataset history_;
  EnergyMeter energy_;
};

}  // namespace caqp

#endif  // CAQP_NET_BASESTATION_H_
