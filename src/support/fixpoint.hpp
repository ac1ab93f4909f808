// Shared fixpoint engine for the iterative analysis phases.
//
// ## Engine contract
//
// The engine schedules *nodes* of a directed graph for re-evaluation
// until a fixpoint is reached. It is agnostic of the abstract domain;
// the client supplies a `process(node)` callback which must
//
//   1. apply the phase's *transfer function* to the node's current
//      input state,
//   2. *join* the result into each successor's input state, and
//   3. `push()` exactly those successors whose input state changed.
//
// Soundness/termination requirements on the client (the classic
// abstract-interpretation conditions):
//
//   - the transfer function must be monotone w.r.t. the domain order,
//   - `join` must compute an upper bound and report "changed" exactly
//     when the stored state grew,
//   - ascending chains must be finite (finite domain or widening).
//
// Under these conditions the set of reachable fixpoints is independent
// of the scheduling order, so the engine is free to pick a fast order:
// a *bucketed priority worklist* that always re-evaluates the pending
// node with the smallest priority. Plain reverse-postorder priorities
// (cfg::rpo_priorities) put predecessors before successors except
// along back edges, but they do not keep a loop together: the code
// after a loop may precede the loop's body. The instance-round engine
// (support/instance_rounds.hpp) therefore derives a loop-nest order
// from them, in which each loop stabilises before its exits run.
// Phases that use visit-counted widening delays may still observe a
// different (sound) fixpoint under a different order; callers that need
// reproducibility simply keep the priorities fixed, which makes the
// iteration fully deterministic.
//
// The worklist is O(1) push, amortized O(1) pop, and never holds a node
// twice. Re-queueing decisions must come from `join`'s exact change
// reporting — never from fingerprint comparison: a 64-bit hash match
// cannot prove state equality, and a collision-dropped join would
// silently understate the fixpoint (an unsound WCET bound).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/budget.hpp"

namespace wcet {

// Bucketed priority worklist over dense node ids [0, n). Priorities are
// fixed at construction; lower priority pops first. Duplicate pushes of
// a queued node are no-ops.
class PriorityWorklist {
public:
  // `priority[node]` in [0, n]; several nodes may share a priority
  // (e.g. unreachable nodes bucketed last).
  explicit PriorityWorklist(std::vector<int> priority)
      : priority_(std::move(priority)), queued_(priority_.size(), false) {
    int max_p = 0;
    for (const int p : priority_) max_p = p > max_p ? p : max_p;
    buckets_.resize(static_cast<std::size_t>(max_p) + 1);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(int node) {
    const auto u = static_cast<std::size_t>(node);
    if (queued_[u]) return;
    queued_[u] = true;
    const auto p = static_cast<std::size_t>(priority_[u]);
    buckets_[p].push_back(node);
    if (p < cursor_) cursor_ = p;
    ++size_;
  }

  // Pops the queued node with the smallest priority, -1 when empty.
  int pop() {
    if (size_ == 0) return -1;
    while (buckets_[cursor_].empty()) ++cursor_;
    const int node = buckets_[cursor_].back();
    buckets_[cursor_].pop_back();
    queued_[static_cast<std::size_t>(node)] = false;
    --size_;
    return node;
  }

private:
  std::vector<int> priority_;
  std::vector<std::vector<int>> buckets_;
  std::vector<bool> queued_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
};

// Drives `process` until the worklist drains. `process(node)` performs
// transfer + join and pushes changed successors (see contract above).
// A non-null `governor` is checked for cooperative cancellation at
// every pop (the finest abort granularity of the fixpoint phases;
// throws CancelledError). Step budgets are NOT consumed here — they
// are accounted at deterministic round barriers by the instance-round
// engine (see support/instance_rounds.hpp and the determinism notes in
// support/budget.hpp).
template <typename ProcessFn>
void run_fixpoint(PriorityWorklist& worklist, const AnalysisGovernor* governor,
                  ProcessFn&& process) {
  for (int node = worklist.pop(); node >= 0; node = worklist.pop()) {
    if (governor != nullptr) governor->check_cancel();
    process(node);
  }
}

} // namespace wcet
