// Fixed-size worker thread pool for the serving layer.
//
// Deliberately minimal: a locked deque + condition variable is plenty for
// the serve workload, where each task plans (milliseconds) or executes a
// cached plan (microseconds) — queue contention is nowhere near the
// bottleneck. Tasks receive their worker index so QueryService can hand each
// worker thread-local planning state (see query_service.h) without any
// thread_local machinery.
//
// Idle spin: with a nonzero budget, a worker whose queue runs empty polls
// it (lock-free, with a CPU pause) for that long before it parks on the
// condition variable. That keeps the thread on its CPU between requests
// that arrive back to back. It matters for dist::ExecutorShard, whose
// single-thread pools are woken together by every scatter: four parked
// workers woken at once were measured landing on a median of ~3 distinct
// CPUs, so a fan-out of 100 us tasks took 227-423 us instead of ~120 us
// (a 200 us spin restored ~120 us, a 50 us one did not). QueryService
// keeps the default 0: its workers share one queue and each request wakes
// one of them, and idle spinners would take CPU from its planner threads.

#ifndef CAQP_SERVE_THREAD_POOL_H_
#define CAQP_SERVE_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace caqp {
namespace serve {

class ThreadPool {
 public:
  /// A unit of work; `worker_id` is in [0, num_threads).
  using Task = std::function<void(size_t worker_id)>;

  /// `idle_spin` is how long an idle worker polls the queue before it
  /// parks (see the file comment); zero parks at once.
  explicit ThreadPool(size_t num_threads,
                      std::chrono::nanoseconds idle_spin = {});
  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after (or concurrently with) the
  /// destructor. Tasks may block (e.g. on a single-flight future) but must
  /// not wait for *queued* work that only another Submit could start.
  void Submit(Task task);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop(size_t worker_id);
  /// Polls has_work_ until it is set or the idle-spin budget runs out.
  void SpinWhileIdle() const;

  const std::chrono::nanoseconds idle_spin_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;   // guarded by mu_
  bool shutdown_ = false;    // guarded by mu_
  /// shutdown_ || !queue_.empty(), stored under mu_ and read without it by
  /// spinning workers, which then take mu_ before trusting it.
  std::atomic<bool> has_work_{false};
  std::vector<std::thread> threads_;
};

}  // namespace serve
}  // namespace caqp

#endif  // CAQP_SERVE_THREAD_POOL_H_
