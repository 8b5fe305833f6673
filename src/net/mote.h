// Simulated sensor mote: holds a received (deserialized) plan and executes
// it once per epoch against its local sensor readings, paying acquisition
// energy per the cost model. Matches the paper's architecture (Figure 4):
// motes only ever run the cheap flat-plan executor over the CompiledPlan IR
// (the form the radio bytes decode straight into); planning happens at the
// basestation.

#ifndef CAQP_NET_MOTE_H_
#define CAQP_NET_MOTE_H_

#include <functional>
#include <optional>

#include "exec/executor.h"
#include "fault/fault.h"
#include "net/energy.h"
#include "plan/compiled_plan.h"
#include "plan/plan_serde.h"

namespace caqp {

class Mote {
 public:
  /// Produces the mote's ground-truth reading of `attr` at `epoch`. The
  /// sampler is only consulted for attributes the plan actually acquires.
  using Sampler = std::function<Value(size_t epoch, AttrId attr)>;

  Mote(int id, const Schema& schema, const AcquisitionCostModel& cost_model,
       Sampler sampler, double energy_budget = -1.0)
      : id_(id),
        schema_(schema),
        cost_model_(cost_model),
        sampler_(std::move(sampler)),
        energy_(energy_budget) {}

  /// Installs a plan from radio bytes. Returns the deserialization status;
  /// a corrupt plan is rejected and the previous plan (if any) stays active.
  Status ReceivePlanBytes(const std::vector<uint8_t>& bytes);

  /// Installs a plan directly (tests / local simulation).
  void InstallPlan(CompiledPlan plan) { plan_ = std::move(plan); }

  bool has_plan() const { return plan_.has_value(); }

  /// The currently installed plan, or nullptr. Lets tests assert that a
  /// plan surviving a lossy link is still well-formed.
  const CompiledPlan* installed_plan() const {
    return plan_.has_value() ? &*plan_ : nullptr;
  }

  /// Runs one epoch: executes the installed plan over this epoch's readings,
  /// charging acquisition energy. Returns nullopt if no plan is installed or
  /// the energy budget is exhausted mid-epoch (the mote browns out).
  std::optional<ExecutionResult> RunEpoch(size_t epoch);

  /// Routes every acquisition through `injector` (non-owning; nullptr
  /// disables injection). The sampler stays the ground truth: it is only
  /// consulted for attempts the injector lets through. Draws are keyed by
  /// epoch: attempt k at attribute a in epoch e is injector->At(e, a, k),
  /// whatever ran in earlier epochs. Motes sharing one injector therefore
  /// fail together; give each mote its own seed to make them independent.
  void SetFaultInjector(const FaultInjector* injector) { fault_ = injector; }

  /// Policy the executor uses when an acquisition fails on this mote.
  void SetDegradationPolicy(const DegradationPolicy& policy) {
    policy_ = policy;
  }
  const DegradationPolicy& degradation_policy() const { return policy_; }

  /// Epochs aborted because the energy budget ran out mid-epoch.
  size_t brownouts() const { return brownouts_; }

  int id() const { return id_; }
  EnergyMeter& energy() { return energy_; }
  const EnergyMeter& energy() const { return energy_; }

 private:
  int id_;
  const Schema& schema_;
  const AcquisitionCostModel& cost_model_;
  Sampler sampler_;
  EnergyMeter energy_;
  std::optional<CompiledPlan> plan_;
  const FaultInjector* fault_ = nullptr;
  DegradationPolicy policy_;
  size_t brownouts_ = 0;
};

}  // namespace caqp

#endif  // CAQP_NET_MOTE_H_
