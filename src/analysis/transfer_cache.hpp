// Shared memoized transfer results of the value analysis.
//
// Contract: `ValueAnalysis::run(pool, &cache)` populates the per-node
// *out*-states as part of its final access-recording sweep — the sweep
// computes them anyway, so memoizing is free. The cache is required:
// every analysis after value analysis reads it, and none keeps a
// private way to recompute what it holds.
//
//   - loop-bound analysis queries `edge_state` / `mem_word_along_edge`
//     for counter initial values,
//   - cache analysis' classification and persistence passes consume the
//     per-access candidate cache-line tables (previously re-enumerated
//     from the address interval once per fixpoint visit and once per
//     enclosing loop),
//   - the cache fixpoint replays per-node *transfer recipes*
//     (`build_cache_recipes` / `cache_recipe`): the resolved
//     instruction-fetch line sequence plus the per-data-access
//     region/candidate-line verdicts, decoded once per decode round
//     instead of once per fixpoint visit of every node.
//
// ## Thread-safety and determinism invariants
//
// All dense node-indexed slots (`set_out_state`, `build_data_lines`,
// `build_cache_recipes`) are built exactly once and may be filled from
// a ThreadPool::parallel_for over disjoint node indices; after the
// build they are immutable and safe for concurrent reads from any
// number of workers. Slot contents are a pure function of the attached
// ValueAnalysis results and the cache geometry — never of thread
// timing — so every consumer sees bit-identical tables for any worker
// count. The lazy `edge_state` memo is the one exception: it is NOT
// thread-safe and must be used from one thread (loop-bound analysis is
// sequential).
//
// ## Layout
//
// The line tables and recipes live in a few flat arrays, not in nested
// per-node and per-access vectors: a sizing pass gives every node a
// slice of each array (its instructions, its accesses, its candidate
// lines, an upper bound on its per-set ops and groups), the arrays are
// allocated once, and the parallel build writes each node's slice.
// Nothing reallocates after sizing, so `data_lines` and `cache_recipe`
// hand out span views into the arrays. A build is about fifteen
// allocations whatever the node count, and so is the teardown.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/value_analysis.hpp"
#include "cfg/supergraph.hpp"
#include "mem/cache.hpp"
#include "mem/memmap.hpp"
#include "support/interval.hpp"

namespace wcet {
class ThreadPool;
}

namespace wcet::analysis {

class TransferCache {
public:
  explicit TransferCache(const cfg::Supergraph& sg);

  // Binds the producing analysis (required before any edge query).
  // Re-attaching a *different* analysis invalidates every memo derived
  // from the old one (edge states, candidate-line tables, recipes) —
  // serving them against new value results would be silently unsound.
  void attach(const ValueAnalysis& values);
  const ValueAnalysis* values() const { return values_; }

  // ---- value-analysis node transfers --------------------------------
  // Producer side: value analysis stores the state after `node`'s full
  // block transfer. Safe per disjoint node index.
  void set_out_state(int node, AbsState state) {
    out_[static_cast<std::size_t>(node)] = std::move(state);
  }
  // State after the node's block; bottom for unreachable nodes.
  const AbsState& out_state(int node) const { return out_[static_cast<std::size_t>(node)]; }

  // Refined out-state along `edge` (bottom when the edge is
  // infeasible). Lazily memoized; single-threaded consumers only.
  const AbsState& edge_state(int edge) const;

  // Value of the tracked/implicit word at `addr` after traversing
  // `edge` (loop-bound analysis reads memory-homed counters with it).
  Interval mem_word_along_edge(int edge, std::uint32_t addr) const;

  // ---- candidate cache-line tables ----------------------------------
  // Candidate lines per data access of one node, index-aligned with
  // ValueAnalysis::accesses(node); an empty span means "unknown line".
  // A view into the flat line table.
  class LineTable {
  public:
    std::size_t size() const { return count_; }
    std::span<const std::uint32_t> operator[](std::size_t i) const {
      return {payload_ + begin_[i], payload_ + begin_[i + 1]};
    }

  private:
    friend class TransferCache;
    const std::uint32_t* begin_ = nullptr; // size() + 1 offsets into payload_
    const std::uint32_t* payload_ = nullptr;
    std::size_t count_ = 0;
  };

  // Builds lines for every data access of every node under the data
  // cache geometry. Idempotent for one config; rebuilding under a
  // *different* geometry is a contract violation and is checked.
  void build_data_lines(const mem::CacheConfig& config);
  LineTable data_lines(int node) const;

  // ---- cache transfer recipes ---------------------------------------
  // A recipe is the decode-invariant part of one node's cache transfer:
  // which abstract i-cache lines its instruction fetches touch (in
  // order, same-line repeats collapsed) and what each data access does
  // to the abstract d-cache. The cache fixpoint replays recipes against
  // the abstract must/may states instead of re-deriving memory regions,
  // line numbers and cacheability per visit. A recipe is a set of views
  // into the flat tables.
  struct CacheRecipe {
    // Per instruction, aligned with the block's instruction list.
    enum class FetchKind : std::uint8_t {
      uncached,  // uncacheable region or i-cache disabled: no state change
      same_line, // same line as the previous fetch: guaranteed hit
      line,      // classify + access `line`
    };
    struct Fetch {
      FetchKind kind = FetchKind::uncached;
      std::uint32_t line = 0; // line_of(pc), stored for every kind
    };
    enum class DataKind : std::uint8_t {
      bypass,  // store / unreachable / uncacheable with known lines:
               // recorded as uncached, no state change
      disturb, // uncacheable range with unknown lines: recorded as
               // uncached but may touch any set (access_unknown)
      cached,  // classify + access the candidate-line table entry
    };
    struct Data {
      DataKind kind = DataKind::bypass;
      bool is_store = false;
      std::uint32_t pc = 0;
      // Index into ValueAnalysis::accesses(node) / data_lines(node).
      std::uint32_t access_index = 0;
    };
    std::span<const Fetch> fetch;
    std::span<const Data> data;
    // Fixpoint replay list: the `line` fields of the FetchKind::line
    // entries, in order (the only fetches that mutate the i-cache).
    std::span<const std::uint32_t> fetch_apply;

    // ---- per-set access programs (the overlay replay) ----------------
    // The node's whole transfer restricted to one cache set, in program
    // order. Distinct sets evolve independently under the must/may
    // transfer, so the fixpoint can apply each touched set's program to
    // a scratch image and join per set — sets not listed are invariant
    // and keep their shared COW leaves (see
    // CacheAnalysis::fixpoint_instance_rounds). Derived mechanically
    // from fetch_apply / data at recipe-build time; both orderings
    // replay the identical access_set sequence per set.
    struct FetchGroup {
      unsigned set = 0;
      std::span<const std::uint32_t> lines; // FetchKind::line fetches of `set`
    };
    std::span<const FetchGroup> fetch_groups; // ascending set index

    struct DataSetOp {
      // age_all: an unknown-line access (DataKind::disturb, or a cached
      // access with an empty candidate table) — the must side ages the
      // whole set, the may side is invariant. Otherwise the restriction
      // of access_one_of to this set: `lines` holds the candidates
      // mapping here, `outside` whether some candidate maps elsewhere
      // (the untouched-alternative join).
      bool age_all = false;
      bool outside = false;
      std::span<const std::uint32_t> lines;
    };
    struct DataGroup {
      unsigned set = 0;
      bool any_one_of = false;        // false: ops are pure must-side aging
      std::span<const DataSetOp> ops; // program order
    };
    std::span<const DataGroup> data_groups; // ascending set index
  };

  // Builds the recipe of every node for the given memory map and cache
  // geometries (parallel over nodes on the pool; implies
  // build_data_lines for `dcache`). Built once per decode round;
  // rebuilding under different geometry is a contract violation and is
  // checked.
  //
  // A recipe is a function of the node's instructions and pcs, its
  // access list, the memory map and the geometries. With `prev` (the
  // recipes of a structurally identical supergraph, built under equal
  // geometries and an equal memory map), every node flagged in
  // `node_clean` — code and access list verified equal — copies its
  // slices from `prev` instead of deriving them. `prev` is only read.
  void build_cache_recipes(const mem::MemoryMap& memmap, const mem::CacheConfig& icache,
                           const mem::CacheConfig& dcache, ThreadPool* pool,
                           const TransferCache* prev = nullptr,
                           const std::vector<char>* node_clean = nullptr);
  bool cache_recipes_ready() const { return recipes_ready_; }
  // True when `node`'s recipe was copied from the previous tables.
  bool recipe_adopted(int node) const {
    return !recipe_adopted_.empty() && recipe_adopted_[static_cast<std::size_t>(node)] != 0;
  }
  const CacheRecipe& cache_recipe(int node) const {
    return recipes_[static_cast<std::size_t>(node)];
  }

private:
  const cfg::Supergraph& sg_;
  const ValueAnalysis* values_ = nullptr;
  std::vector<AbsState> out_;
  // Edge-state memo: one slot per edge, valid where the flag is set.
  mutable std::vector<AbsState> edge_out_;
  mutable std::vector<unsigned char> edge_ready_;

  // Candidate-line table: node n's accesses are [access_begin_[n],
  // access_begin_[n + 1]); access a's lines are line_payload_[
  // line_begin_[a] .. line_begin_[a + 1]).
  std::vector<std::uint32_t> access_begin_;
  std::vector<std::uint32_t> line_begin_;
  std::vector<std::uint32_t> line_payload_;
  bool lines_ready_ = false;
  mem::CacheConfig lines_config_;

  // Recipe tables. Node n owns the slices [inst_begin_[n], inst_begin_[n
  // + 1]) of the instruction-sized arrays, its access slice of data_,
  // its line slice of op_lines_ (each candidate line lands in exactly
  // one per-set op), and [op_begin_[n], op_begin_[n + 1]) /
  // [group_begin_[n], group_begin_[n + 1]) of ops_ / data_groups_ (upper
  // bounds from the line table). recipes_ holds the views.
  std::vector<std::uint32_t> inst_begin_;
  std::vector<std::uint32_t> op_begin_;
  std::vector<std::uint32_t> group_begin_;
  std::vector<CacheRecipe::Fetch> fetch_;
  std::vector<std::uint32_t> fetch_apply_;
  std::vector<std::uint32_t> fetch_group_lines_;
  std::vector<CacheRecipe::FetchGroup> fetch_groups_;
  std::vector<CacheRecipe::Data> data_;
  std::vector<std::uint32_t> op_lines_;
  std::vector<CacheRecipe::DataSetOp> ops_;
  std::vector<CacheRecipe::DataGroup> data_groups_;
  std::vector<CacheRecipe> recipes_;
  std::vector<char> recipe_adopted_; // per node; empty when nothing was adopted
  bool recipes_ready_ = false;
  mem::CacheConfig recipes_iconfig_;
  const mem::MemoryMap* recipes_memmap_ = nullptr; // identity of the map baked in
};

} // namespace wcet::analysis
