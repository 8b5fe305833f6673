#include "serve/plan_store.h"

#include <chrono>
#include <utility>

#include "core/query_signature.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "plan/plan_estimates.h"

namespace caqp {
namespace serve {

namespace {
/// Independently locked plan-cache shards (serve/plan_cache.h).
constexpr size_t kCacheShards = 8;
}  // namespace

std::shared_ptr<const CompiledPlan> CompileForServe(
    PlanBuilder& builder, const Plan& plan,
    const AcquisitionCostModel& cost_model, bool stamp_estimates) {
  CompiledPlan compiled = CompiledPlan::Compile(plan);
  CondProbEstimator* estimator =
      stamp_estimates ? builder.CalibrationEstimator() : nullptr;
  if (estimator != nullptr) {
    // Stamp what the planner believed at build time. Same thread as Build,
    // so an estimator the builder does not share is safe too.
    auto estimates = std::make_shared<PlanEstimates>(
        EstimatePlan(compiled, *estimator, cost_model));
    opt::UncertaintyBox box;
    if (builder.PlanningBox(&box) && !box.degenerate()) {
      // Robust builder: record the box and its interval cost promise so
      // calibration can score the plan against the range, not just the
      // point (obs::PlanCalibration::predicted_cost_lo/hi).
      opt::StampEstimatesWithBox(
          *estimates, box,
          opt::ExpectedPlanCostBounds(compiled, *estimator, cost_model, box));
    }
    compiled.AttachEstimates(std::move(estimates));
  }
  return std::make_shared<const CompiledPlan>(std::move(compiled));
}

PlanStore::PlanStore(size_t capacity, uint64_t fingerprint)
    : caching_(capacity > 0),
      fingerprint_(fingerprint),
      cache_(ShardedPlanCache::Options{capacity, kCacheShards}) {}

PlanKey PlanStore::Key(const Query& query) const {
  return PlanKey{QuerySignature(query),
                 version_.load(std::memory_order_acquire), fingerprint_};
}

std::shared_ptr<const CompiledPlan> PlanStore::Get(const PlanKey& key) {
  if (!caching_) return nullptr;
  std::shared_ptr<const CompiledPlan> plan = cache_.Get(key);
  if (plan != nullptr) {
    CAQP_OBS_COUNTER_INC("serve.cache.hits");
  } else {
    CAQP_OBS_COUNTER_INC("serve.cache.misses");
  }
  return plan;
}

PlanStore::Built PlanStore::BuildOnce(const PlanKey& key,
                                      const BuildFn& build,
                                      double follower_wait_seconds) {
  if (!caching_) return {build(), /*planned=*/true};
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Flight>& slot = flights_[key];
    leader = slot == nullptr;
    if (leader) slot = std::make_shared<Flight>();
    flight = slot;
  }
  if (!leader) {
    // Wait outside the lock, so the leader can publish and deregister.
    CAQP_OBS_COUNTER_INC("serve.single_flight.followers");
    CAQP_OBS_SPAN(wait_span, "plan.wait_leader");
    const auto future = flight->future;
    if (follower_wait_seconds > 0.0 &&
        future.wait_for(std::chrono::duration<double>(
            follower_wait_seconds)) != std::future_status::ready) {
      CAQP_OBS_COUNTER_INC("serve.single_flight.follower_timeouts");
      return {nullptr, /*planned=*/false, /*timed_out=*/true};
    }
    return {future.get()};
  }

  // Build with no lock held, publish, then deregister: a request for this
  // key after the erase leads its own flight and finds the plan cached.
  CAQP_OBS_COUNTER_INC("serve.single_flight.leaders");
  Built built;
  {
    CAQP_OBS_SPAN(build_span, "plan.build_leader");
    built.plan = cache_.Peek(key);
    if (built.plan == nullptr) {
      built.plan = build();
      built.planned = true;
      const ShardedPlanCache::PutResult put = cache_.Put(key, built.plan);
      if (put.inserted) CAQP_OBS_COUNTER_INC("serve.cache.inserts");
      if (put.evicted > 0) {
        CAQP_OBS_COUNTER_ADD("serve.cache.evictions", put.evicted);
      }
    }
  }
  flight->promise.set_value(built.plan);
  std::lock_guard<std::mutex> lock(mu_);
  flights_.erase(key);
  return built;
}

void PlanStore::Invalidate() {
  version_.fetch_add(1, std::memory_order_acq_rel);
  CAQP_OBS_COUNTER_ADD("serve.cache.invalidated_entries",
                       cache_.InvalidateAll());
  CAQP_OBS_COUNTER_INC("serve.cache.invalidations");
}

size_t PlanStore::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

}  // namespace serve
}  // namespace caqp
