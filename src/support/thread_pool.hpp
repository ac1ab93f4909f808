// A small, work-stealing-free thread pool for the analysis phases.
//
// Design goals, in order:
//   1. *Determinism*: the item -> worker assignment of `parallel_for`
//      depends only on (item count, worker count) — contiguous static
//      chunks, no stealing, no atomic claiming. Together with tasks
//      that write disjoint state and a sequential merge step on the
//      caller, results are bit-identical for ANY worker count
//      (including 1, which runs inline on the caller thread).
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
#include "support/diag.hpp"

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

  // Runs fn(i) once for every task i in [0, n) of a dependency graph:
  // parent[i] names the task consuming i's result (-1 for roots) and
  // pending[i] counts the children task i still waits for (`pending`
  // is consumed — it holds live countdowns during the run). A task is
  // dispatched the moment its countdown hits zero, so independent
  // subtrees overlap freely instead of meeting at level barriers.
  //
  // Scheduling is dynamic (a shared ready queue), so *which worker*
  // runs a task depends on timing — determinism therefore demands a
  // stronger caller discipline than parallel_for's: each task must be
  // a pure function of its own index and its children's published
  // results, writing only its own slot. The queue order then never
  // matters: leaves seed the queue in ascending index order, a parent
  // fires only after its last child published (the pool's mutex
  // sequences child writes before the parent's dispatch), and any
  // cross-task merge happens on the caller after the call returns.
  // Under those rules results are bit-identical for ANY worker count,
  // including 1 (which runs inline on the caller thread).
  //
  // Like parallel_for, this is not reentrant, the governor is polled
  // before every task, and the first exception wins: dispatch stops,
  // in-flight tasks finish, and the exception is rethrown here.
  template <typename Fn>
  void run_graph(std::size_t n, Fn&& fn, const std::vector<int>& parent,
                 std::vector<int>& pending) {
    WCET_CHECK(parent.size() >= n && pending.size() >= n,
               "run_graph: parent/pending arrays shorter than task count");
    if (n == 0) return;
    if (threads_.empty()) {
      std::vector<std::size_t> ready;
      ready.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (pending[i] == 0) ready.push_back(i);
      }
      for (std::size_t qi = 0; qi < ready.size(); ++qi) {
        const std::size_t task = ready[qi];
        if (governor_ != nullptr) governor_->check_cancel();
        fn(task);
        const int p = parent[task];
        if (p >= 0 && --pending[static_cast<std::size_t>(p)] == 0) {
          ready.push_back(static_cast<std::size_t>(p));
        }
      }
      WCET_CHECK(ready.size() == n, "run_graph: dependency graph has a cycle");
      return;
    }
    std::function<void(std::size_t)> body = [&fn](std::size_t i) { fn(i); };
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &body;
      graph_ = true;
      graph_queue_.clear();
      graph_head_ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (pending[i] == 0) graph_queue_.push_back(i);
      }
      graph_parent_ = &parent;
      graph_pending_ = &pending;
      graph_done_ = 0;
      graph_total_ = n;
      pending_ = static_cast<unsigned>(threads_.size());
      ++generation_;
    }
    wake_cv_.notify_all();
    graph_drain();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    graph_ = false;
    const std::size_t done = graph_done_;
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
    WCET_CHECK(done == n, "run_graph: dependency graph has a cycle");
  }

private:
  // Pops and runs ready graph tasks until the run completes or fails.
  // Each finished task decrements its parent's countdown under the
  // pool mutex; the release/acquire pair this implies is what
  // publishes every child's writes to the worker that runs the parent.
  void graph_drain() {
    for (;;) {
      std::size_t task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        graph_cv_.wait(lock, [this] {
          return graph_head_ < graph_queue_.size() || graph_done_ == graph_total_ ||
                 error_ != nullptr;
        });
        if (error_ != nullptr || graph_head_ == graph_queue_.size()) {
          return; // finished or poisoned: stop dispatching
        }
        task = graph_queue_[graph_head_++];
      }
      try {
        if (governor_ != nullptr) governor_->check_cancel();
        (*job_)(task);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
        ++graph_done_;
        graph_cv_.notify_all(); // wake everyone: dispatch is over
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++graph_done_;
        const int p = (*graph_parent_)[task];
        if (p >= 0 && error_ == nullptr &&
            --(*graph_pending_)[static_cast<std::size_t>(p)] == 0) {
          graph_queue_.push_back(static_cast<std::size_t>(p));
          graph_cv_.notify_one();
        }
        if (graph_done_ == graph_total_ || error_ != nullptr) graph_cv_.notify_all();
      }
    }
  }

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
      bool graph = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        graph = graph_;
      }
      if (graph) {
        graph_drain();
      } else {
        run_chunk(worker);
      }
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
  // Dependency-graph mode (run_graph): a shared FIFO of ready task
  // indices, drained by every worker plus the caller.
  std::condition_variable graph_cv_;
  std::vector<std::size_t> graph_queue_;
  std::size_t graph_head_ = 0;
  const std::vector<int>* graph_parent_ = nullptr;
  std::vector<int>* graph_pending_ = nullptr;
  std::size_t graph_done_ = 0;
  std::size_t graph_total_ = 0;
  bool graph_ = false;
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

template <typename Fn>
void run_graph(ThreadPool* pool, std::size_t n, Fn&& fn, const std::vector<int>& parent,
               std::vector<int>& pending) {
  (pool != nullptr ? *pool : inline_pool()).run_graph(n, fn, parent, pending);
}

} // namespace wcet
