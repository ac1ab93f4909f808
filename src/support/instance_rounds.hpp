// Deterministic per-instance round scheduling for supergraph fixpoints.
//
// ## What this engine is
//
// The supergraph's function instances form a tree (each instance has
// exactly one caller), and every analysis edge either stays inside one
// instance or is a call/ret edge between two instances. That structure
// admits a two-level fixpoint schedule shared by the value and cache
// analyses:
//
//   round:  every *dirty* instance converges a local priority worklist
//           over its own nodes, in loop-nest order (see the
//           constructor);
//   merge:  out-states buffered on cross-instance edges during the
//           round are joined into their targets in a fixed sequential
//           order — ascending instance id, then ascending edge id;
//   repeat: instances whose worklists received work become the next
//           round's dirty set, until no worklist holds a node.
//
// The engine owns the scheduling half of that loop: instance-local node
// orders, the per-instance worklists, the dirty set and the round/merge
// alternation. The *domain* half — transfer functions, join operators
// and the cross-edge buffers themselves — stays with the client, which
// keeps the engine agnostic of the abstract state (the value analysis
// buffers `AbsState`s, the cache analysis buffers must/may cache
// pairs).
//
// ## Determinism contract
//
// Results are bit-identical for ANY worker count (a one-worker pool
// runs the rounds inline, in dirty-instance order) provided the client
// honours two rules:
//
//   1. `process(instance, node)` only reads/writes state owned by
//      `instance` (its nodes' in-states, its intra-instance edges, its
//      own cross-edge buffer) and only calls `push()` for nodes of that
//      same instance. Instances dirty in the same round then touch
//      disjoint state, so the ThreadPool's static chunking cannot
//      affect the outcome — only the wall-clock time.
//   2. `flush(instance)` applies the instance's buffered cross-edge
//      joins in ascending edge id order. The engine already calls
//      `flush` sequentially in ascending instance id order, so the
//      total merge order is a pure function of the graph.
//
// Rule 1's "owned state" is refined, not weakened, by the copy-on-write
// states (support/cow.hpp): slots of *different* instances may share
// immutable COW leaves — sharing is created by the sequential flush
// joins and by snapshot propagation — because a client mutates leaves
// only through the detach-on-mutate interface, which never writes a
// block another slot can still reach. What stays per-instance is the
// *slot* (the CowPtr/CowVec object itself): only the owning instance
// may reassign or detach it. Propagation should copy-assign states
// (O(1) snapshot-share) rather than rebuild them, so unchanged leaves
// keep their identity and downstream joins skip them by pointer
// equality.
//
// Under the usual abstract-interpretation conditions (monotone
// transfer, exact change reporting from the join) the reached fixpoint
// is schedule-independent; the fixed round/merge order above
// additionally pins every intermediate state, which is what makes
// visit-counted policies such as widening delays reproducible too (see
// support/fixpoint.hpp for the single-worklist contract this builds
// on).
#pragma once

#include <algorithm>
#include <compare>
#include <vector>

#include "cfg/domloop.hpp"
#include "cfg/supergraph.hpp"
#include "support/fixpoint.hpp"
#include "support/thread_pool.hpp"

namespace wcet {

class InstanceRoundEngine {
public:
  // `priorities[node]` is the global fixpoint priority of each
  // supergraph node (cfg::rpo_priorities). Each instance iterates its
  // nodes in loop-nest order, a weak topological order (Bourdoncle,
  // FMPA 1993): a node's key lists the priorities of the headers of the
  // loops that hold it, outermost first, then its own priority (-1 for
  // a header, so it leads its loop). Every node of a loop thus comes
  // after its header and before any node outside the loop, so a loop
  // stabilises before the code after it runs; the priority orders the
  // rest, ties by node id.
  InstanceRoundEngine(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                      const std::vector<int>& priorities)
      : sg_(sg) {
    const std::size_t num_nodes = sg.nodes().size();
    const std::size_t num_instances = sg.instances().size();
    // All keys in one array: node v's key is key[key_begin[v],
    // key_begin[v + 1]).
    std::vector<std::size_t> key_begin(num_nodes + 1, 0);
    for (std::size_t v = 0; v < num_nodes; ++v) {
      std::size_t length = 1;
      for (int l = loops.innermost_loop_of(static_cast<int>(v)); l >= 0;
           l = loops.loop(l).parent) {
        ++length;
      }
      key_begin[v + 1] = key_begin[v] + length;
    }
    std::vector<int> key(key_begin[num_nodes]);
    for (std::size_t v = 0; v < num_nodes; ++v) {
      const int inner = loops.innermost_loop_of(static_cast<int>(v));
      std::size_t at = key_begin[v + 1] - 1;
      key[at] = inner >= 0 && loops.loop(inner).header == static_cast<int>(v) ? -1
                                                                              : priorities[v];
      for (int l = inner; l >= 0; l = loops.loop(l).parent) {
        key[--at] = priorities[static_cast<std::size_t>(loops.loop(l).header)];
      }
    }
    inst_nodes_.resize(num_instances);
    local_index_.assign(num_nodes, -1);
    worklists_.reserve(num_instances);
    for (std::size_t i = 0; i < num_instances; ++i) {
      inst_nodes_[i] = sg.instance_nodes(static_cast<int>(i));
      std::sort(inst_nodes_[i].begin(), inst_nodes_[i].end(), [&](int a, int b) {
        const int* const k = key.data();
        const auto ua = static_cast<std::size_t>(a);
        const auto ub = static_cast<std::size_t>(b);
        const auto order = std::lexicographical_compare_three_way(
            k + key_begin[ua], k + key_begin[ua + 1], k + key_begin[ub], k + key_begin[ub + 1]);
        return order != 0 ? order < 0 : a < b;
      });
      for (std::size_t k = 0; k < inst_nodes_[i].size(); ++k) {
        local_index_[static_cast<std::size_t>(inst_nodes_[i][k])] = static_cast<int>(k);
      }
      std::vector<int> identity(inst_nodes_[i].size());
      for (std::size_t k = 0; k < identity.size(); ++k) identity[k] = static_cast<int>(k);
      worklists_.emplace_back(std::move(identity));
    }
    round_pops_.assign(num_instances, 0);
  }

  // Optional resource governor: when set, every worklist pop checks for
  // cooperative cancellation (throws CancelledError). Budget accounting
  // stays at the deterministic round barrier (see `run` with round_end).
  void set_governor(const AnalysisGovernor* governor) { governor_ = governor; }

  std::size_t num_instances() const { return inst_nodes_.size(); }

  // Schedule `node` for (re-)evaluation. Callable from `process` only
  // for nodes of the instance being processed (rule 1 above); callable
  // from `flush` and from seeding code for any node.
  void push(int node) {
    const int instance = sg_.node(node).instance;
    worklists_[static_cast<std::size_t>(instance)].push(
        local_index_[static_cast<std::size_t>(node)]);
  }

  // Runs rounds until every worklist drains. `process(instance, node)`
  // applies the client's transfer + intra-instance joins (pushing
  // changed same-instance successors) and buffers cross-instance
  // out-states; `flush(instance)` applies that instance's buffered
  // cross joins in ascending edge order, pushing grown targets.
  //
  // The budget hook: after each round's sequential merge,
  // `round_end(round_pops)` receives the total number of node visits
  // (worklist pops) of that round — a pure function of the graph and
  // the abstract domain, identical for any worker count, because the
  // per-instance counts are summed after the barrier in instance order.
  // Returning false stops the engine *at the round barrier*: all
  // worklists are drained and iteration ends. The client is then
  // responsible for a sound interpretation of the un-converged states
  // (see the degradation ladder in support/budget.hpp).
  template <typename ProcessFn, typename FlushFn, typename RoundEndFn>
  void run(ThreadPool* pool, ProcessFn&& process, FlushFn&& flush, RoundEndFn&& round_end) {
    std::vector<int> dirty;
    collect_dirty(dirty);
    while (!dirty.empty()) {
      const auto run_instance = [&](std::size_t di) {
        const int instance = dirty[di];
        auto& worklist = worklists_[static_cast<std::size_t>(instance)];
        const auto& nodes = inst_nodes_[static_cast<std::size_t>(instance)];
        std::uint64_t pops = 0;
        run_fixpoint(worklist, governor_, [&](const int lid) {
          ++pops;
          process(instance, nodes[static_cast<std::size_t>(lid)]);
        });
        round_pops_[static_cast<std::size_t>(instance)] = pops;
      };
      parallel_for(pool, dirty.size(), run_instance);
      // Sequential deterministic merge: ascending instance id (the
      // dirty list is built in ascending order below; the seed round
      // may be unsorted only when seeding pushed a single instance).
      for (const int instance : dirty) flush(instance);
      std::uint64_t total_pops = 0;
      for (const int instance : dirty) {
        total_pops += round_pops_[static_cast<std::size_t>(instance)];
      }
      if (!round_end(total_pops)) {
        drain_all();
        return;
      }
      collect_dirty(dirty);
    }
  }

private:
  void collect_dirty(std::vector<int>& dirty) const {
    dirty.clear();
    for (std::size_t i = 0; i < worklists_.size(); ++i) {
      if (!worklists_[i].empty()) dirty.push_back(static_cast<int>(i));
    }
  }

  void drain_all() {
    for (auto& worklist : worklists_) {
      while (worklist.pop() >= 0) {
      }
    }
  }

  const cfg::Supergraph& sg_;
  const AnalysisGovernor* governor_ = nullptr;
  std::vector<std::vector<int>> inst_nodes_;
  std::vector<int> local_index_;
  std::vector<PriorityWorklist> worklists_;
  std::vector<std::uint64_t> round_pops_;
};

} // namespace wcet
