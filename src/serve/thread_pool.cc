#include "serve/thread_pool.h"

#include <utility>

namespace caqp {
namespace serve {

namespace {

/// A spin-wait hint to the CPU; a no-op where there is none.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, std::chrono::nanoseconds idle_spin)
    : idle_spin_(idle_spin) {
  CAQP_CHECK(num_threads > 0);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    has_work_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(Task task) {
  CAQP_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CAQP_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
    has_work_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void ThreadPool::SpinWhileIdle() const {
  const auto deadline = std::chrono::steady_clock::now() + idle_spin_;
  do {
    for (int i = 0; i < 32; ++i) {
      if (has_work_.load(std::memory_order_relaxed)) return;
      CpuRelax();
    }
  } while (std::chrono::steady_clock::now() < deadline);
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (idle_spin_.count() > 0 && !shutdown_ && queue_.empty()) {
        lock.unlock();
        SpinWhileIdle();
        lock.lock();
      }
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      has_work_.store(shutdown_ || !queue_.empty(),
                      std::memory_order_relaxed);
    }
    task(worker_id);
  }
}

}  // namespace serve
}  // namespace caqp
