// Deterministic fault-injection harness for robustness testing.
//
// The pipeline is sprinkled with named injection sites at coarse
// boundaries (pass entry, fixpoint round barriers, ILP solve entry,
// B&B expansion). Each site is a `WCET_FAULT_POINT("name")` macro,
// compiled into every build:
//
//   - An unarmed site costs one relaxed atomic load — cheap enough to
//     leave in the shipped and benchmarked library.
//   - A test *arms* one (site, action, countdown) triple; the N-th
//     visit of that site fires the action: throw InputError /
//     AnalysisError / std::bad_alloc, or flip a CancelToken.
//
// Determinism: arming is done from a single thread before the analysis
// starts and the countdown is a single atomic decremented at whichever
// thread visits the site; for sites on the orchestrating thread (all
// pass/round/solve boundaries) the firing visit is fully reproducible.
//
// The registry also records which sites were *visited*, so the fault
// matrix test can assert that every site in `known_sites()` is actually
// reached by its workload — a site list that drifts out of sync with
// the code fails loudly instead of silently testing nothing.
#pragma once

#include <atomic>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "support/budget.hpp"
#include "support/diag.hpp"

namespace wcet::fault {

enum class Action {
  none,
  throw_input,    // InputError at the site
  throw_analysis, // AnalysisError at the site
  throw_bad_alloc,// allocation failure at the site
  cancel,         // flip the registered CancelToken; analysis keeps
                  // running until the next cancellation checkpoint
};

class Registry {
public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  // Arms `site` to fire `action` on its (skip+1)-th visit.
  void arm(const std::string& site, Action action, std::uint64_t skip = 0,
           CancelToken* token = nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    site_ = site;
    action_ = action;
    token_ = token;
    remaining_.store(static_cast<std::int64_t>(skip), std::memory_order_relaxed);
    fired_.store(false, std::memory_order_relaxed);
    armed_.store(action != Action::none, std::memory_order_release);
  }

  void disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_.store(trace_, std::memory_order_release);
    action_ = Action::none;
    token_ = nullptr;
  }

  bool fired() const { return fired_.load(std::memory_order_relaxed); }

  // Visited-site tracing without an armed action: every fault point
  // takes the slow path and records itself in `visited()`, so a test
  // can cross-check `known_sites()` against what the workload reaches.
  void trace(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    trace_ = on;
    armed_.store(trace_ || action_ != Action::none, std::memory_order_release);
  }

  void clear_visited() {
    std::lock_guard<std::mutex> lock(mutex_);
    visited_.clear();
  }
  std::set<std::string> visited() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return visited_;
  }

  // Hot path: called by every WCET_FAULT_POINT.
  void maybe_fire(const char* site) {
    if (!armed_.load(std::memory_order_acquire)) return;
    fire_slow(site);
  }

private:
  Registry() = default;

  void fire_slow(const char* site) {
    Action action = Action::none;
    CancelToken* token = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      visited_.insert(site);
      if (action_ == Action::none || site_ != site) return;
      if (remaining_.fetch_sub(1, std::memory_order_relaxed) != 0) return;
      action = action_;
      token = token_;
      fired_.store(true, std::memory_order_relaxed);
      // One-shot: a fired site stays quiet for the rest of the run
      // (tracing, when on, keeps recording visits).
      action_ = Action::none;
      armed_.store(trace_, std::memory_order_release);
    }
    switch (action) {
    case Action::none:
      return;
    case Action::throw_input:
      throw InputError(std::string("fault injected at ") + site);
    case Action::throw_analysis:
      throw AnalysisError(std::string("fault injected at ") + site);
    case Action::throw_bad_alloc:
      throw std::bad_alloc();
    case Action::cancel:
      if (token != nullptr) token->cancel();
      return;
    }
  }

  mutable std::mutex mutex_;
  std::string site_;
  Action action_ = Action::none;
  CancelToken* token_ = nullptr;
  std::atomic<std::int64_t> remaining_{0};
  std::atomic<bool> armed_{false};
  std::atomic<bool> fired_{false};
  bool trace_ = false;
  std::set<std::string> visited_;
};

// Every injection site compiled into the pipeline. Tests sweep this
// list; `Registry::visited()` after an unarmed run cross-checks it.
inline const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "phase:decode", "phase:value", "phase:loop-bounds", "phase:cache",
      "phase:pipeline", "phase:path", "value:round", "cache:round",
      "ilp:solve", "bnb:node", "serve:admit", "serve:evict",
  };
  return sites;
}

} // namespace wcet::fault

#define WCET_FAULT_POINT(site) ::wcet::fault::Registry::instance().maybe_fire(site)
