#include "net/mote.h"

#include "obs/obs.h"
#include "obs/registry.h"

namespace caqp {

namespace {

/// AcquisitionSource that reads from the mote's sampler for a fixed epoch.
class EpochSource : public AcquisitionSource {
 public:
  EpochSource(const Mote::Sampler& sampler, size_t epoch)
      : sampler_(sampler), epoch_(epoch) {}
  AcquiredValue Acquire(AttrId attr) override { return sampler_(epoch_, attr); }

 private:
  const Mote::Sampler& sampler_;
  size_t epoch_;
};

}  // namespace

Status Mote::ReceivePlanBytes(const std::vector<uint8_t>& bytes) {
  Result<CompiledPlan> plan = DeserializeCompiledPlan(bytes, schema_);
  if (!plan.ok()) return plan.status();
  plan_ = std::move(plan).value();
  return Status::OK();
}

std::optional<ExecutionResult> Mote::RunEpoch(size_t epoch) {
  if (!plan_.has_value()) return std::nullopt;
  EpochSource base(sampler_, epoch);
  ExecutionResult res;
  if (fault_ != nullptr) {
    FaultyAcquisitionSource source(base, *fault_);
    source.SetRow(static_cast<RowId>(epoch));
    res = ExecutePlan(*plan_, schema_, cost_model_, source, nullptr, policy_);
  } else {
    res = ExecutePlan(*plan_, schema_, cost_model_, base, nullptr, policy_);
  }
  if (!energy_.Consume(res.cost)) {
    ++brownouts_;
    CAQP_OBS_COUNTER_INC("net.mote.brownouts");
    return std::nullopt;
  }
  CAQP_OBS_COUNTER_INC("net.mote.epochs");
  CAQP_OBS_HIST_RECORD("net.mote.epoch_cost", res.cost);
  return res;
}

}  // namespace caqp
