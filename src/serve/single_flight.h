// Single-flight plan construction: when N requests for the same cache key
// miss at once, exactly one (the "leader") runs the expensive BuildPlan; the
// other N-1 ("followers") block on a shared future and receive the leader's
// plan. Without this, a burst of identical fresh queries stampedes the
// planner — the classic thundering-herd failure of a look-aside cache.
//
// The leader runs the build function on its own thread with no lock held,
// so distinct keys plan concurrently. Followers block; this is safe in the
// serve worker pool because a leader never waits on queued work (see
// thread_pool.h's Submit contract) — the wait chain is always
// follower -> leader -> done.

#ifndef CAQP_SERVE_SINGLE_FLIGHT_H_
#define CAQP_SERVE_SINGLE_FLIGHT_H_

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "plan/compiled_plan.h"
#include "serve/plan_cache.h"

namespace caqp {
namespace serve {

class SingleFlight {
 public:
  using BuildFn = std::function<std::shared_ptr<const CompiledPlan>()>;

  struct Result {
    std::shared_ptr<const CompiledPlan> plan;
    /// True iff this caller ran `build` (it was the leader).
    bool leader = false;
    /// True iff this caller was a follower that gave up waiting (plan is
    /// nullptr in that case). The leader keeps building regardless; its
    /// result still lands in the plan cache for later requests.
    bool timed_out = false;
  };

  /// Returns build() for the leader, and the leader's result for every
  /// follower that arrives before the leader finishes. `build` must not
  /// return nullptr and must not re-enter Do() for the same key.
  ///
  /// `follower_wait_seconds` bounds how long a follower blocks on the
  /// leader: negative waits forever; otherwise a follower that is still
  /// waiting after the timeout returns {nullptr, false, timed_out=true} so
  /// the caller can degrade (e.g. serve a cheap fallback plan). A leader is
  /// never preempted — it owns the build and always runs it to completion.
  Result Do(const PlanKey& key, const BuildFn& build,
            double follower_wait_seconds = -1.0);

  /// Keys currently being planned (for metrics/tests).
  size_t InFlight() const;

 private:
  struct Flight {
    std::promise<std::shared_ptr<const CompiledPlan>> promise;
    std::shared_future<std::shared_ptr<const CompiledPlan>> future;
  };

  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<Flight>, PlanKeyHash>
      flights_;  // guarded by mu_
};

}  // namespace serve
}  // namespace caqp

#endif  // CAQP_SERVE_SINGLE_FLIGHT_H_
