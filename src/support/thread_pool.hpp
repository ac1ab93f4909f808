// A small, work-stealing-free thread pool for the analysis phases.
//
// Design goals, in order:
//   1. *Determinism*: the item -> worker assignment of `parallel_for`,
//      the pool's only dispatch path, depends only on (item count,
//      worker count) — contiguous static chunks, no stealing, no
//      atomic claiming. Together with tasks that write disjoint state
//      and a sequential merge step on the caller, results are
//      bit-identical for ANY worker count (including 1, which runs
//      inline on the caller thread).
//   2. Simplicity: persistent workers parked on one condition
//      variable; a generation counter publishes jobs. No queues.
//
// ## Thread-safety and determinism invariants
//
//   - `parallel_for` may only be called from one thread at a time (the
//     analyses share one pool and call it phase by phase); the pool is
//     NOT reentrant — a task must not call parallel_for on the pool
//     that is running it.
//   - Worker w executes exactly the index range [n*w/W, n*(w+1)/W), in
//     ascending order — a pure function of (n, W). There is no work
//     stealing and no atomic claiming, so which thread computes which
//     item never depends on timing.
//   - Determinism of *results* additionally requires the caller's
//     discipline: items must write disjoint state (beware
//     vector<bool>'s shared words — use byte-sized flags), and any
//     cross-item reduction must happen after the barrier in a fixed
//     order on the caller. Under those rules results are bit-identical
//     for ANY worker count, including 1 (which runs inline on the
//     caller thread and spawns nothing).
//   - Exceptions: the first exception thrown by any item is rethrown
//     on the caller after the barrier; the pool remains usable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/budget.hpp"

namespace wcet {

class ThreadPool {
public:
  // `workers` counts the caller thread: a pool of N spawns N-1 threads.
  // workers <= 1 spawns nothing and parallel_for degrades to a loop.
  explicit ThreadPool(unsigned workers) {
    const unsigned extra = workers > 1 ? workers - 1 : 0;
    threads_.reserve(extra);
    for (unsigned w = 1; w <= extra; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  unsigned workers() const { return static_cast<unsigned>(threads_.size()) + 1; }

  // Optional resource governor: when set, every chunk item checks for
  // cooperative cancellation before running. A fired CancelToken turns
  // into a CancelledError rethrown on the caller after the barrier —
  // the same path any task exception takes, so the pool stays usable.
  void set_governor(const AnalysisGovernor* governor) { governor_ = governor; }

  // Runs fn(i) for every i in [0, n), blocking until all items are
  // done. Worker w handles exactly the indices in
  // [n*w/W, n*(w+1)/W) — a pure function of (n, W). The first
  // exception thrown by any item is rethrown on the caller after the
  // barrier (remaining items of that worker's chunk are skipped;
  // other workers finish their chunks).
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (threads_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        if (governor_ != nullptr) governor_->check_cancel();
        fn(i);
      }
      return;
    }
    std::function<void(std::size_t)> body = [&fn](std::size_t i) { fn(i); };
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &body;
      job_n_ = n;
      pending_ = static_cast<unsigned>(threads_.size());
      ++generation_;
    }
    wake_cv_.notify_all();
    run_chunk(0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

private:
  void run_chunk(unsigned worker) {
    // job_/job_n_ are stable while a generation is in flight: they are
    // written under the mutex before the generation bump and cleared
    // only after every worker reported done.
    const unsigned w = workers();
    const std::size_t begin = job_n_ * worker / w;
    const std::size_t end = job_n_ * (worker + 1) / w;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        if (governor_ != nullptr) governor_->check_cancel();
        (*job_)(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void worker_loop(unsigned worker) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      run_chunk(worker);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --pending_;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  const AnalysisGovernor* governor_ = nullptr;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  unsigned pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

// The analyses' entry points. A null pool (perfbench at one thread,
// unit tests) runs on one shared one-worker pool: the inline schedule,
// without a governor. Its inline paths keep no state, so concurrent and
// nested calls are safe.
inline ThreadPool& inline_pool() {
  static ThreadPool pool(1);
  return pool;
}

template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn) {
  (pool != nullptr ? *pool : inline_pool()).parallel_for(n, fn);
}

} // namespace wcet
