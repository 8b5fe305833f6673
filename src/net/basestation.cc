#include "net/basestation.h"

#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "prob/dataset_estimator.h"

namespace caqp {

namespace {
/// Size of the ack message a mote sends after installing a plan.
constexpr size_t kAckBytes = 4;
}  // namespace

void Basestation::CollectHistory(const Dataset& data) {
  CAQP_CHECK(data.schema() == schema_);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    history_.Append(data.GetTuple(r));
  }
}

CompiledPlan Basestation::TrainPlan(const Query& query,
                                    const SplitPointSet& splits,
                                    const SequentialSolver& solver,
                                    size_t max_splits,
                                    double size_penalty_alpha) {
  CAQP_CHECK_GT(history_.num_rows(), 0u);
  DatasetEstimator estimator(history_);
  GreedyPlanner::Options opts;
  opts.split_points = &splits;
  opts.seq_solver = &solver;
  opts.max_splits = max_splits;
  opts.size_penalty_alpha = size_penalty_alpha;
  GreedyPlanner planner(estimator, cost_model_, opts);
  return CompiledPlan::Compile(planner.BuildPlan(query));
}

size_t Basestation::Disseminate(const CompiledPlan& plan,
                                std::vector<Mote*>& motes) {
  return Disseminate(plan, motes, DisseminateOptions{});
}

size_t Basestation::Disseminate(const CompiledPlan& plan,
                                std::vector<Mote*>& motes,
                                const DisseminateOptions& opts) {
  // Request-tracing span (obs/span.h): no-op unless the calling thread is
  // bound to a serve request scope.
  CAQP_OBS_SPAN(disseminate_span, "net.disseminate");
  const std::vector<uint8_t> bytes = SerializePlan(plan);
  const std::vector<uint8_t> ack_msg(kAckBytes, 0xA5);
  CAQP_OBS_COUNTER_INC("net.base.disseminations");
  CAQP_OBS_GAUGE_SET("net.base.plan_bytes", static_cast<double>(bytes.size()));
  const int max_attempts = opts.max_attempts < 1 ? 1 : opts.max_attempts;
  size_t installed = 0;
  for (Mote* mote : motes) {
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        CAQP_OBS_COUNTER_INC("net.retransmissions");
        // Linear backoff: each further attempt waits (and idle-listens)
        // proportionally longer. An unaffordable backoff ends the retry
        // loop -- the basestation cannot keep the radio up.
        if (opts.backoff_cost > 0.0 &&
            !energy_.Consume(opts.backoff_cost * attempt)) {
          break;
        }
      }
      const Radio::Delivery d = radio_.Transmit(bytes, energy_, mote->energy());
      if (!d.delivered) continue;
      if (!mote->ReceivePlanBytes(d.payload).ok()) {
        CAQP_OBS_COUNTER_INC("net.base.corrupt_plans_rejected");
        continue;
      }
      if (!opts.require_ack) {
        ++installed;
        break;
      }
      const Radio::Delivery ack =
          radio_.Transmit(ack_msg, mote->energy(), energy_);
      if (ack.delivered) {
        ++installed;
        break;
      }
      // Install happened but the ack was lost: retransmit so the
      // basestation can confirm (installation is idempotent).
    }
  }
  CAQP_OBS_COUNTER_ADD("net.base.plans_installed", installed);
  return installed;
}

std::vector<Basestation::EpochReport> Basestation::RunContinuousQuery(
    std::vector<Mote*>& motes, size_t epochs, size_t result_message_bytes) {
  std::vector<EpochReport> reports;
  reports.reserve(epochs);
  const std::vector<uint8_t> result_msg(result_message_bytes, 0);
  for (size_t e = 0; e < epochs; ++e) {
    EpochReport rep;
    rep.epoch = e;
    for (Mote* mote : motes) {
      const size_t brownouts_before = mote->brownouts();
      const std::optional<ExecutionResult> res = mote->RunEpoch(e);
      if (!res.has_value()) {
        if (mote->brownouts() > brownouts_before) ++rep.browned_out;
        continue;
      }
      ++rep.motes_reporting;
      rep.acquisition_cost += res->cost;
      if (!res->defined()) ++rep.unknown_verdicts;
      if (res->verdict) {
        // Matching tuples are shipped back to the basestation.
        const Radio::Delivery d =
            radio_.Transmit(result_msg, mote->energy(), energy_);
        if (d.delivered) {
          ++rep.matches;
        } else {
          ++rep.unreachable;
        }
      }
    }
    reports.push_back(rep);
  }
  return reports;
}

Basestation::LimitResult Basestation::RunLimitQuery(
    std::vector<Mote*>& motes, size_t limit, size_t max_epochs,
    size_t result_message_bytes) {
  LimitResult res;
  const std::vector<uint8_t> result_msg(result_message_bytes, 0);
  for (size_t e = 0; e < max_epochs && res.matches < limit; ++e) {
    ++res.epochs_run;
    for (Mote* mote : motes) {
      if (res.matches >= limit) break;
      const std::optional<ExecutionResult> r = mote->RunEpoch(e);
      if (!r.has_value()) continue;
      res.acquisition_cost += r->cost;
      if (r->verdict) {
        const Radio::Delivery d =
            radio_.Transmit(result_msg, mote->energy(), energy_);
        if (d.delivered) ++res.matches;
      }
    }
  }
  return res;
}

}  // namespace caqp
