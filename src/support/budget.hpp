// Bounded-resource governance for the analysis pipeline.
//
// Industrial WCET tooling treats "never crash, always return a sound
// answer or a classified failure" as a core property. This header is
// the contract that makes it hold here:
//
//   AnalysisBudget   — a *specification*: wall-clock deadline plus
//                      per-phase step budgets (fixpoint node visits,
//                      simplex pivots, B&B nodes, tracked-state bytes).
//                      Zero means unlimited; a default-constructed
//                      budget changes nothing anywhere.
//   CancelToken      — lock-free external abort switch, safe to flip
//                      from any thread while an analysis runs.
//   AnalysisGovernor — the per-analysis runtime tracker. Phases consult
//                      it at two distinct granularities:
//
//     * CANCELLATION is checked *finely* (every worklist pop, every
//       pivot batch, every B&B expansion, every ThreadPool chunk item)
//       and aborts the analysis with a classified `CancelledError`.
//       Cancellation is inherently nondeterministic — it races wall
//       clock against progress — so it never produces a bound at all;
//       it exists to bound the *latency* of giving up.
//     * STEP BUDGETS are consumed only at *deterministic* points
//       (instance-round barriers with engine-counted pops, per-ILP-solve
//       pivot/node caps). Exhaustion never aborts: each phase degrades
//       to a sound-but-looser result and records the fact in the
//       degradation ledger, so the same budget yields the same bound on
//       any thread count.
//     * The DEADLINE is wall clock, checked with a throttle; it trips
//       the same sound degradation paths as the step budgets but is —
//       by nature — not reproducible across runs.
//
// The ledger (`Degradation`) travels into `WcetReport::degradations`:
// a degraded bound is still a true upper (resp. lower) bound, but it is
// never silently presented as the exact analysis result.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/diag.hpp"

namespace wcet {

// Lock-free cooperative abort switch. `cancel()` may be called from any
// thread (e.g. a daemon's request timeout); the analysis observes it at
// the next checkpoint and unwinds with CancelledError.
class CancelToken {
public:
  void cancel() noexcept {
    request_ns_.store(now_ns(), std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_relaxed); }
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }
  // Steady-clock timestamp of the cancel() call; 0 if never cancelled.
  std::int64_t request_ns() const noexcept {
    return request_ns_.load(std::memory_order_relaxed);
  }

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> request_ns_{0};
};

// Classified abort: the analysis was cancelled mid-flight. A subclass
// of AnalysisError so existing catch sites (and the CLI error boundary,
// exit code 3) treat it as an expected analysis-level outcome, never an
// internal bug.
class CancelledError : public AnalysisError {
public:
  CancelledError() : AnalysisError("analysis cancelled") {}
  explicit CancelledError(const std::string& what) : AnalysisError(what) {}
};

// Resource envelope for one analysis run. All limits are optional;
// 0 = unlimited. Step budgets are *cumulative across the run* for the
// fixpoint phases and *per solve* for the ILP limits (each sub-ILP of a
// decomposed IPET gets the full pivot/node cap — degradation of one
// region must not starve its siblings).
struct AnalysisBudget {
  std::uint64_t deadline_ms = 0;       // wall clock from analysis start
  std::uint64_t max_value_visits = 0;  // value-analysis fixpoint node visits
  std::uint64_t max_cache_visits = 0;  // cache-analysis fixpoint node visits
  std::uint64_t max_pivots = 0;        // simplex pivots per LP/ILP solve
  std::uint64_t max_ilp_nodes = 0;     // branch & bound nodes per ILP solve
  std::uint64_t max_state_bytes = 0;   // peak tracked abstract-state bytes
  CancelToken* cancel = nullptr;       // external abort switch (not owned)

  bool unlimited() const {
    return deadline_ms == 0 && max_value_visits == 0 && max_cache_visits == 0 &&
           max_pivots == 0 && max_ilp_nodes == 0 && max_state_bytes == 0 &&
           cancel == nullptr;
  }
};

// One ledger entry: which phase gave up what, why, and the direction of
// the bound impact. `effect` must make clear the result is sound but
// possibly looser (WCET never under-reported, BCET never over-reported).
struct Degradation {
  std::string phase;    // "value", "cache", "path", ...
  std::string trigger;  // "visit budget", "deadline", "node budget", "fault:<site>"
  std::string effect;   // e.g. "un-converged cache instances classified all-miss"
  bool operator==(const Degradation&) const = default;
};

// Per-analysis runtime tracker. One instance lives for the duration of
// one `Analyzer::analyze*` call and is shared (via AnalysisContext) by
// every phase and worker thread.
//
// Thread-safety: cancel/deadline checks and the budget_checks counter
// are relaxed atomics (safe from any worker); step-budget consumption
// happens only on the orchestrating thread at round barriers or inside
// a single solve, and the ledger is mutex-protected.
class AnalysisGovernor {
public:
  explicit AnalysisGovernor(const AnalysisBudget& budget)
      : budget_(budget), start_ns_(CancelToken::now_ns()) {}

  const AnalysisBudget& budget() const { return budget_; }

  // ---- cancellation (fine granularity, cheap, any thread) ----

  bool cancel_requested() const noexcept {
    budget_checks_.fetch_add(1, std::memory_order_relaxed);
    return budget_.cancel != nullptr && budget_.cancel->cancelled();
  }

  // Throws CancelledError when the token fired. Also records the
  // observed cancel latency (request -> first checkpoint that saw it).
  void check_cancel() const {
    if (!cancel_requested()) return;
    const std::int64_t req = budget_.cancel->request_ns();
    if (req != 0) {
      const std::int64_t lat_us = (CancelToken::now_ns() - req) / 1000;
      std::int64_t expect = -1;
      cancel_latency_us_.compare_exchange_strong(expect, lat_us < 0 ? 0 : lat_us,
                                                 std::memory_order_relaxed);
    }
    throw CancelledError();
  }

  // Latency from cancel() to the first checkpoint that observed it, in
  // microseconds; -1 when the run was never cancelled.
  std::int64_t cancel_latency_us() const {
    return cancel_latency_us_.load(std::memory_order_relaxed);
  }

  // ---- wall-clock deadline (throttled; inherently nondeterministic) ----

  // True once the deadline has passed. Reads the clock only every
  // `kDeadlineStride` calls; once tripped, stays tripped.
  bool deadline_exceeded() const noexcept {
    if (budget_.deadline_ms == 0) return false;
    if (deadline_hit_.load(std::memory_order_relaxed)) return true;
    if (deadline_probe_.fetch_add(1, std::memory_order_relaxed) % kDeadlineStride != 0) {
      return false;
    }
    // Unsigned compare: deadline_ms may exceed INT64_MAX. Elapsed time
    // is never negative (the clock is steady).
    const auto elapsed_ms =
        static_cast<std::uint64_t>((CancelToken::now_ns() - start_ns_) / 1000000);
    if (elapsed_ms >= budget_.deadline_ms) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // ---- step budgets (deterministic consumption points only) ----

  // Consume `n` units from a cumulative budget; false once exhausted
  // (and forever after). `limit` == 0 means unlimited. Callable only
  // from deterministic single-threaded contexts (round barriers) —
  // const because phases hold a const governor, not because it is
  // concurrency-safe.
  bool consume_value_visits(std::uint64_t n) const {
    return consume(value_visits_spent_, budget_.max_value_visits, n);
  }
  bool consume_cache_visits(std::uint64_t n) const {
    return consume(cache_visits_spent_, budget_.max_cache_visits, n);
  }
  // True when `bytes` of tracked abstract state exceed the budget.
  bool state_bytes_exceeded(std::uint64_t bytes) const {
    return budget_.max_state_bytes != 0 && bytes > budget_.max_state_bytes;
  }

  // Per-solve ILP caps (0 = unlimited). Handed to each LP/ILP solve.
  std::uint64_t pivot_limit() const { return budget_.max_pivots; }
  std::uint64_t ilp_node_limit() const { return budget_.max_ilp_nodes; }

  // ---- ledger & telemetry ----

  void record(const std::string& phase, const std::string& trigger,
              const std::string& effect) const {
    std::lock_guard<std::mutex> lock(mutex_);
    ledger_.push_back({phase, trigger, effect});
  }

  // Snapshot of the ledger, sorted and deduplicated for cross-schedule
  // determinism of the *report text* (entries from parallel sub-solves
  // may be recorded in any order — and several truncated regions record
  // the same entry; their set is deterministic, their arrival is not).
  std::vector<Degradation> degradations() const {
    std::vector<Degradation> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out = ledger_;
    }
    std::sort(out.begin(), out.end(), [](const Degradation& a, const Degradation& b) {
      if (a.phase != b.phase) return a.phase < b.phase;
      if (a.trigger != b.trigger) return a.trigger < b.trigger;
      return a.effect < b.effect;
    });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Degradation& a, const Degradation& b) {
                            return a.phase == b.phase && a.trigger == b.trigger &&
                                   a.effect == b.effect;
                          }),
              out.end());
    return out;
  }

  std::uint64_t budget_checks() const {
    return budget_checks_.load(std::memory_order_relaxed);
  }

private:
  static bool consume(std::uint64_t& spent, std::uint64_t limit, std::uint64_t n) {
    spent += n;
    return limit == 0 || spent <= limit;
  }

  static constexpr std::uint64_t kDeadlineStride = 64;

  AnalysisBudget budget_;
  std::int64_t start_ns_ = 0;
  mutable std::uint64_t value_visits_spent_ = 0;
  mutable std::uint64_t cache_visits_spent_ = 0;
  mutable std::atomic<std::uint64_t> budget_checks_{0};
  mutable std::atomic<std::uint64_t> deadline_probe_{0};
  mutable std::atomic<bool> deadline_hit_{false};
  mutable std::atomic<std::int64_t> cancel_latency_us_{-1};
  mutable std::mutex mutex_;
  mutable std::vector<Degradation> ledger_;
};

} // namespace wcet
