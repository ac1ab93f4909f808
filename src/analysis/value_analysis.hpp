// Value analysis (Figure 1, "Loop/Value Analysis"): interval abstract
// interpretation of registers and memory over the supergraph.
//
// Memory model: words stored through statically known addresses are
// tracked exactly (globals, stack slots — the stack pointer is constant
// from _start, so frames resolve). A store through an imprecise address
// joins its value into every tracked word it may alias and poisons the
// "written hull"; reads of untracked addresses fall back to the image's
// initial contents only while provably un-written. This reproduces the
// paper's Section 4.3 observation: one unknown write "destroys all known
// information about memory" — unless a per-function access fact confines
// it, which is exactly what the `accesses` annotation does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "annot/annotations.hpp"
#include "cfg/domloop.hpp"
#include "cfg/supergraph.hpp"
#include "mem/memmap.hpp"
#include "support/cow.hpp"
#include "support/flat_map.hpp"
#include "support/interval.hpp"

namespace wcet {
class ThreadPool;
class AnalysisGovernor;
}

namespace wcet::analysis {

class TransferCache;

// Address regions possibly stored to since task entry, kept as a small
// list of disjoint intervals (a single hull would let one confined
// store poison unrelated globals across the address space). The list
// lives inline, so copying a state never allocates for it.
class WrittenRegions {
public:
  static constexpr std::size_t capacity = 6;

  // Adds `range`, merging it into the first region within 64 bytes of
  // it; one region past `capacity` collapses the list into one hull
  // (sound, coarse). Returns true exactly when the list changed.
  bool add(const Interval& range);

  std::size_t size() const { return size_; }
  const Interval& operator[](std::size_t i) const { return regions_[i]; }
  const Interval* begin() const { return regions_; }
  const Interval* end() const { return regions_ + size_; }
  bool operator==(const WrittenRegions& other) const;

private:
  Interval regions_[capacity];
  std::uint8_t size_ = 0;
};

// Abstract machine state: register file + tracked memory words. The
// tracked-word table is a sorted flat vector (support/flat_map.hpp):
// joins and widenings run as linear merge-joins and iteration order is
// deterministic by address. The table sits behind a COW pointer
// (support/cow.hpp): copying a state — per-edge refinement, call/ret
// merge buffers, transfer-cache out-state snapshots — shares the table,
// and only a real mutation (`mem.mut()`) detaches it. Reads go through
// `mem->` / `*mem`; a null pointer canonically reads as the empty table.
// The table is the only heap memory a state owns.
struct AbsState {
  using MemTable = FlatMap<std::uint32_t, Interval>;
  bool bottom = true; // default: unreachable
  Interval regs[isa::num_registers];
  CowPtr<MemTable> mem; // word-aligned tracked addresses
  WrittenRegions written;
  static constexpr std::size_t max_written_regions = WrittenRegions::capacity;
  void add_written(const Interval& range) { written.add(range); }
  bool possibly_written(const Interval& range) const;

  static AbsState entry_state();
  bool join_with(const AbsState& other); // returns true if changed
  void widen_from(const AbsState& older);
  bool operator==(const AbsState& other) const;
};

struct AccessInfo {
  std::uint32_t pc = 0;
  bool is_store = false;
  int size = 0;
  Interval addr = Interval::bottom(); // bottom: instruction unreachable
  bool operator==(const AccessInfo&) const = default;
};

class ValueAnalysis {
public:
  struct Options {
    Options() {}
    // Confinement of imprecise accesses per function entry (annotation).
    std::map<std::uint32_t, std::vector<annot::AccessRange>> access_facts;
  };

  // `schedule_priorities` is the per-node fixpoint scheduling priority
  // every phase shares (cfg::rpo_priorities over the dominator RPO).
  ValueAnalysis(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                const mem::MemoryMap& memmap, const Options& options,
                std::vector<int> schedule_priorities);

  // Runs the fixpoint with the per-instance round engine: each round,
  // every dirty function instance converges its *local* priority
  // worklist (cross-instance call/ret joins are buffered), then the
  // buffered joins are applied in a fixed sequential order. Instances
  // dirty in the same round are independent, so a ThreadPool may fan
  // them out — the round/merge order is fixed, which makes the result
  // bit-identical for ANY worker count. The final access-recording
  // sweep publishes per-node out-states into `transfers` (required:
  // loop bounds and cache analysis read them).
  //
  // `governor` (optional) makes the fixpoint budget-aware: node visits
  // are charged at each round barrier, and once the visit/state-byte
  // budget (or the wall-clock deadline) is exhausted the analysis flips
  // into forced-coarsening mode — every subsequent changing join jumps
  // its target to the coarse near-top state, so the fixpoint still
  // converges (each node coarsens at most once) and the result remains
  // an over-approximation of the collecting semantics, just a looser
  // one. The engine is never stopped mid-fixpoint: un-iterated states
  // would undercut the least fixpoint, which is unsound. Cancellation
  // is checked at every worklist pop and aborts with CancelledError.
  void run(ThreadPool* pool, TransferCache* transfers,
           const AnalysisGovernor* governor = nullptr);

  // True when a budget/deadline trip forced coarse convergence.
  bool degraded() const { return degraded_; }

  // State at node entry (join over incoming edges). Bottom: unreachable.
  const AbsState& state_in(int node) const { return in_[static_cast<std::size_t>(node)]; }
  // Edge infeasibility discovered by branch refinement.
  bool edge_feasible(int edge) const {
    return edge_feasible_[static_cast<std::size_t>(edge)] != 0;
  }
  bool node_reachable(int node) const { return !in_[static_cast<std::size_t>(node)].bottom; }

  // Address intervals of every memory access in a node, in instruction
  // order (empty interval entries for non-memory instructions are
  // omitted; `pc` identifies the instruction).
  const std::vector<AccessInfo>& accesses(int node) const {
    return accesses_[static_cast<std::size_t>(node)];
  }

  // Register interval immediately before the instruction at `pc` within
  // `node` (recomputed by walking the block from state_in).
  Interval reg_before(int node, std::uint32_t pc, std::uint8_t reg) const;

  // Indirect-branch feedback for the decode loop: jalr sites whose
  // target interval collapsed to a single constant.
  std::map<std::uint32_t, std::vector<std::uint32_t>> resolved_indirect_targets() const;

  // Transfer a state through a full node (exposed for tests, which
  // check the transfer cache's out-states against it).
  AbsState transfer_node(int node, AbsState state) const;
  // Apply branch refinement along an edge to the source's out state.
  AbsState refine_along_edge(int edge, AbsState state) const;
  // Value of an untracked word under `state` (image contents while
  // provably unwritten; exposed for TransferCache::mem_word_along_edge).
  Interval implicit_mem_word(const AbsState& state, std::uint32_t addr) const {
    return implicit_word(state, addr);
  }

private:
  // transfer_node in place: the analysis threads one state through
  // every instruction of a block instead of copying it per instruction.
  // `accesses` (optional) records each memory access.
  void transfer_block(int node, AbsState& state, std::vector<AccessInfo>* accesses) const;
  void transfer_inst(const isa::Inst& inst, std::uint32_t pc, AbsState& state,
                     std::uint32_t fn_entry, std::vector<AccessInfo>* accesses) const;
  Interval read_mem(const AbsState& state, const Interval& addr, int size,
                    bool sign_extend) const;
  void write_mem(AbsState& state, const Interval& addr, int size, Interval value,
                 std::uint32_t fn_entry) const;
  Interval implicit_word(const AbsState& state, std::uint32_t addr) const;
  Interval confine(const Interval& addr, std::uint32_t fn_entry) const;
  // Logical size of all tracked per-node states, for the state-byte
  // budget, charged by content: 8 bytes per register and per written
  // region (one interval each) and 12 per tracked memory word (address
  // and interval), COW sharing ignored. The figure is a pure function
  // of the abstract states — identical for any worker count, and
  // unmoved by a change in how AbsState stores them.
  std::uint64_t tracked_state_bytes() const;

  const cfg::Supergraph& sg_;
  const cfg::LoopForest& loops_;
  const mem::MemoryMap& memmap_;
  Options options_;
  std::vector<int> schedule_priorities_;
  std::vector<AbsState> in_;
  // unsigned char, not vector<bool>: parallel instance rounds set
  // feasibility of disjoint intra-instance edges concurrently, and
  // vector<bool> packs bits into shared words.
  std::vector<unsigned char> edge_feasible_;
  std::vector<std::vector<AccessInfo>> accesses_;
  std::vector<bool> is_widen_point_;
  bool degraded_ = false;
};

} // namespace wcet::analysis
