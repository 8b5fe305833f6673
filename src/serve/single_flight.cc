#include "serve/single_flight.h"

#include <chrono>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace caqp {
namespace serve {

SingleFlight::Result SingleFlight::Do(const PlanKey& key,
                                      const BuildFn& build,
                                      double follower_wait_seconds) {
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Follower: block on the leader's shared future, outside the lock so
      // the leader can publish and deregister.
      std::shared_future<std::shared_ptr<const CompiledPlan>> future =
          it->second->future;
      lock.unlock();
      CAQP_OBS_COUNTER_INC("serve.single_flight.followers");
      CAQP_OBS_SPAN(wait_span, "plan.wait_leader");
      if (follower_wait_seconds >= 0.0) {
        const auto wait = std::chrono::duration<double>(follower_wait_seconds);
        if (future.wait_for(wait) != std::future_status::ready) {
          CAQP_OBS_COUNTER_INC("serve.single_flight.follower_timeouts");
          return {nullptr, /*leader=*/false, /*timed_out=*/true};
        }
      }
      return {future.get(), /*leader=*/false};
    }
    flight = std::make_shared<Flight>();
    flight->future = flight->promise.get_future().share();
    flights_.emplace(key, flight);
  }

  // Leader: plan with no lock held, publish, then deregister. Requests for
  // this key that arrive after the erase re-plan — by then the plan is in
  // the cache, so they hit there instead.
  CAQP_OBS_COUNTER_INC("serve.single_flight.leaders");
  std::shared_ptr<const CompiledPlan> plan;
  {
    CAQP_OBS_SPAN(build_span, "plan.build_leader");
    plan = build();
  }
  CAQP_CHECK(plan != nullptr);
  flight->promise.set_value(plan);
  {
    std::lock_guard<std::mutex> lock(mu_);
    flights_.erase(key);
  }
  return {std::move(plan), /*leader=*/true};
}

size_t SingleFlight::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

}  // namespace serve
}  // namespace caqp
