// Abstract cache analysis: LRU must/may analysis (Ferdinand-style) with
// a loop-scoped persistence pass.
//
//   must-cache: lines guaranteed present (age = upper bound) -> always-hit
//   may-cache:  lines possibly present (age = lower bound)   -> always-miss
//   persistence: a line whose conflict set within a reducible loop fits
//     the associativity can miss at most once per loop entry -> the IPET
//     charges its miss penalty on the loop-entry count, reproducing the
//     precision effect of virtual loop unrolling (the paper's rule-14.4
//     discussion: irreducible loops forfeit this, so no persistence is
//     computed for them).
//
// Imprecise accesses (unknown address) age the entire must-cache — the
// paper's "an imprecise memory access invalidates large parts of the
// abstract cache (or even the whole cache)" made executable.
//
// Engine: the fixpoint runs on the deterministic per-instance round
// scheduler (support/instance_rounds.hpp) shared with the value
// analysis, and each node's transfer replays a memoized recipe from
// the shared TransferCache (resolved fetch-line sequence + per-access
// cacheability/candidate-line verdicts) instead of re-decoding the
// block per visit. Classifications are bit-identical for any
// ThreadPool worker count and any schedule — the must/may domain has
// no widening, so the least fixpoint is schedule-independent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/value_analysis.hpp"
#include "cfg/domloop.hpp"
#include "mem/cache.hpp"
#include "mem/memmap.hpp"
#include "support/cow.hpp"
#include "support/flat_map.hpp"

namespace wcet {
class ThreadPool;
class AnalysisGovernor;
}

namespace wcet::analysis {

class TransferCache;

enum class AccessClass {
  always_hit,
  always_miss,
  not_classified,
  uncached, // io / uncacheable region or store (write-through bypasses)
};

const char* to_string(AccessClass cls);

// Visit the distinct cache sets of a candidate-line list in
// first-appearance order — the one splitting rule shared by
// AbsCache::access_one_of, the lazy classification recorder and the
// recipe builder (TransferCache::build_cache_recipes), which must agree
// bit-for-bit. `fn(set, outside)`: `outside` is true when some
// candidate maps to a different set (equivalently, when more than one
// set is affected — every line maps to some affected set).
// `affected_scratch` is a caller-owned buffer reused across calls.
template <typename Fn>
void for_each_candidate_set(const mem::CacheConfig& config,
                            std::span<const std::uint32_t> lines,
                            std::vector<unsigned>& affected_scratch, Fn&& fn) {
  affected_scratch.clear();
  for (const std::uint32_t line : lines) {
    const unsigned s = config.set_index(line * config.line_bytes);
    if (std::find(affected_scratch.begin(), affected_scratch.end(), s) ==
        affected_scratch.end()) {
      affected_scratch.push_back(s);
    }
  }
  const bool outside = affected_scratch.size() > 1;
  for (const unsigned s : affected_scratch) fn(s, outside);
}

// Join-gating telemetry for the abstract cache states: set-level joins
// actually examined vs. skipped outright because both leaves were the
// same shared COW object (join(x, x) = x). Process-global, reset per
// cache pass; never consulted by any analysis decision.
struct CacheJoinStats {
  std::uint64_t joins = 0;      // per-set joins examined (leaves differed)
  std::uint64_t join_skips = 0; // pointer-equality fast-path skips
};
CacheJoinStats cache_join_stats();
void reset_cache_join_stats();

// One abstract set-associative LRU cache (must or may variant).
//
// Set images live in a copy-on-write vector (support/cow.hpp):
// copy-assigning an AbsCache is an O(1) snapshot, the transfer detaches
// only the sets an access actually touches, and joins skip
// pointer-identical leaves without merging (see join_with). A null leaf
// canonically represents the empty set image, so a cold cache allocates
// no images at all. All mutation goes through the COW detach, so shared
// snapshots across ThreadPool workers are never written in place.
class AbsCache {
public:
  using SetImage = FlatMap<std::uint32_t, unsigned>;

  AbsCache(const mem::CacheConfig& config, bool must);

  static AbsCache cold(const mem::CacheConfig& config, bool must) {
    return AbsCache(config, must); // cold start: nothing cached (exact)
  }

  bool contains(std::uint32_t line) const;
  // Precise access to one line.
  void access(std::uint32_t line);
  // Access to exactly one of several candidate lines: the join over the
  // alternatives. Only the sets holding a candidate line are touched —
  // every other set image is invariant under each alternative, so the
  // whole-cache join degenerates to per-affected-set joins.
  void access_one_of(std::span<const std::uint32_t> lines);
  // Access to a completely unknown line.
  void access_unknown();

  bool join_with(const AbsCache& other); // true if changed
  bool operator==(const AbsCache& other) const;
  // O(1): both hold the same COW snapshot (one is a copy of the other
  // that no mutation has detached since).
  bool same_as(const AbsCache& other) const { return sets_.same_as(other.sets_); }

  // ---- overlay interface ----------------------------------------------
  // The fixpoint replays each node's per-set access programs
  // (TransferCache::CacheRecipe::fetch_groups / data_groups) against
  // value-level scratch images instead of materializing a full
  // out-state cache: untouched sets never detach, and a touched set
  // whose program turns out to be the identity keeps its shared leaf
  // too. These helpers expose the exact per-set transfer/join semantics
  // the whole-cache operations above are built from.

  // The current image of set `s` (empty for a null leaf).
  const SetImage& set_image(unsigned s) const { return sets_.at(s); }
  // The transfer of access(line) on a detached value image.
  void apply_access_image(SetImage& image, std::uint32_t line) const {
    access_set(image, line);
  }
  // Single-pass fused variant: emits the transfer of access(line)
  // applied to `base` into `out` (buffer reused, no allocation at
  // steady capacity) and reports whether out differs from base —
  // replacing the copy + transform + compare triple of the overlay
  // build for the dominant one-line groups.
  bool access_into(const SetImage& base, std::uint32_t line, SetImage& out) const;
  // The restriction of access_one_of to one set: join over the in-set
  // alternatives (`lines`, program order) plus the unmodified image
  // when some alternative maps elsewhere (`outside`). The scratches are
  // caller-owned buffers reused across calls.
  void apply_one_of_image(SetImage& image, std::span<const std::uint32_t> lines,
                          bool outside, SetImage& scratch_alt,
                          SetImage& scratch_result) const;
  // The must half of access_unknown restricted to one set (the may
  // half is the identity).
  void age_image(SetImage& image) const;
  // Value-level join of `image` into set `s` (dry-run gated like
  // join_with). Returns true when the leaf changed.
  bool join_image(unsigned s, const SetImage& image);
  // Whole-state join from `source` with the touched sets overridden by
  // value images: `sets`/`changed`/`images` describe the overlay
  // (ascending set index; only entries with changed != 0 differ from
  // source's leaf). Exact same result as materializing the out-state
  // and calling join_with, without the materialization. Sets are
  // selected by a vectorized identity diff of the two leaf arrays, so
  // an edge whose states mostly share leaves costs a few SIMD compares
  // rather than a per-set walk.
  bool join_with_overlay(const AbsCache& source, std::span<const unsigned> sets,
                         std::span<const unsigned char> changed, const SetImage* images);
  // Install a value image as set `s`'s leaf (used when an out-state
  // must be materialized after all, e.g. for cross-instance buffers).
  void install_image(unsigned s, const SetImage& image);

  const mem::CacheConfig& config() const { return config_; }

private:
  void age_set(unsigned set, unsigned below_age);
  // The transfer of `access(line)` restricted to line's set image.
  void access_set(SetImage& set, std::uint32_t line) const;
  // Exact no-op predicate for `access(line)` on `set`: true when the
  // access would change the image (and the leaf must detach).
  bool access_changes(const SetImage& set, std::uint32_t line) const;
  // Join `theirs` into `mine` (must: intersection with maximal age;
  // may: union with minimal age). Returns true when `mine` changed.
  bool join_set(SetImage& mine, const SetImage& theirs) const;
  // Dry-run change predicates mirroring join_set's exact change report,
  // so an unchanged target leaf is never detached.
  bool must_join_changes(const SetImage& mine, const SetImage& theirs) const;
  bool may_join_changes(const SetImage& mine, const SetImage& theirs) const;
  // The one join-gating core behind join_image/join_leaf: dry-run
  // gated, in-place on uniquely owned leaves, aliasing `alias_source`'s
  // leaf (when given) whenever the result equals `theirs`. Returns true
  // when the leaf changed.
  bool join_core(unsigned s, const SetImage& theirs,
                 const CowVec<SetImage>* alias_source);
  // Leaf-level join of set `s` with COW sharing: skips detaching when
  // nothing changes, aliases `other`'s leaf when the join lands on
  // their value. Returns true when the leaf changed.
  bool join_leaf(unsigned s, const AbsCache& other);

  mem::CacheConfig config_;
  bool must_;
  // Per set: line -> abstract age in [0, ways), as a sorted flat vector
  // (sets hold at most a handful of lines; merge-joins beat tree maps)
  // behind a COW leaf — empty images are canonically null.
  CowVec<SetImage> sets_;
};

struct FetchClass {
  AccessClass cls = AccessClass::not_classified;
  int persistent_loop = -1; // outermost loop in which the line persists
};

struct DataClass {
  std::uint32_t pc = 0;
  bool is_store = false;
  AccessClass cls = AccessClass::not_classified;
  int persistent_loop = -1;
  // Distinct cache lines the access may touch: a persistent access can
  // still miss once per line per loop entry.
  unsigned candidate_count = 1;
};

class CacheAnalysis {
public:
  // Fixpoint scheduling strategy. `priority` is the production engine:
  // deterministic per-instance rounds (support/instance_rounds.hpp) —
  // each dirty function instance converges a local loop-nest worklist,
  // cross-instance call/ret joins merge in fixed (instance, edge)
  // order, and dirty instances fan out across the pool.
  // `round_robin` sweeps all nodes in id order until stable — the
  // reference iteration the engine is validated against in tests. The
  // must/may domain is a finite join-semilattice with no widening, so
  // the least fixpoint is provably schedule-independent: both
  // schedules, at any worker count, reach the identical classification.
  enum class Schedule { priority, round_robin };
  // How run() started its fixpoint: cold (no warm start attempted),
  // warm (the warm fixpoint was committed) or fallback (a warm attempt
  // diverged and the cold fixpoint re-ran).
  enum class Start { cold, warm, fallback };

  // `schedule_priorities`: the shared per-node fixpoint priorities
  // (cfg::rpo_priorities; the round-robin reference ignores them).
  // `transfers`: the shared transfer cache `values` published into
  // (required); the per-access candidate-line tables and per-node
  // transfer recipes are built into it once and read from it by every
  // fixpoint visit and enclosing loop. `pool` fans out the per-instance
  // fixpoint rounds, the per-node classification recording sweep and
  // the per-loop-tree persistence pass; results are identical for any
  // worker count.
  CacheAnalysis(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                const ValueAnalysis& values, const mem::MemoryMap& memmap,
                const mem::CacheConfig& icache, const mem::CacheConfig& dcache,
                Schedule schedule, std::vector<int> schedule_priorities,
                TransferCache* transfers, ThreadPool* pool);

  // Optional resource governor. Cache visits are charged at each round
  // barrier; once the budget (or the wall-clock deadline) is exhausted
  // the fixpoint stops at that barrier and the record sweep falls back
  // to conservative classifications — every state-dependent access
  // becomes not-classified (all-miss for timing purposes), which is
  // sound regardless of how far the fixpoint got. Cancellation is
  // checked at every worklist pop and aborts with CancelledError.
  void set_governor(const AnalysisGovernor* governor) { governor_ = governor; }
  // True when a budget/deadline trip truncated the fixpoint.
  bool degraded() const { return degraded_; }

  // Incremental warm-start (src/serve): `prev` is the previous
  // converged analysis of a structurally identical supergraph and
  // `instance_clean` flags instances whose code words AND value states
  // are verified unchanged. Clean instances start frozen at
  // `prev`'s converged in-states; only dirty instances iterate from
  // cold. The must/may domain has no widening — its least fixpoint is
  // schedule-independent — so warm exactness reduces to three checks,
  // all performed here: (1) no loop of the forest spans a clean and a
  // dirty instance (the clean/dirty boundary is then acyclic and the
  // global least fixpoint decomposes componentwise); (2) no delivery
  // ever *changes* a frozen clean in-state; (3) every previously
  // feasible dirty->clean boundary edge stays feasible and delivers a
  // bit-identical out-state. Any violation discards the warm states
  // and reruns the cold fixpoint, so the published classifications are
  // always exactly the cold result. Without `prev` the fixpoint runs
  // cold.
  //
  // `node_clean` (with `prev`) flags nodes whose code, value in-state
  // and access list are verified equal to `prev`'s. Such a node adopts
  // `prev`'s transfer recipe (TransferCache::build_cache_recipes). Once
  // the warm start committed, it also adopts `prev`'s classification
  // rows when its recipe was adopted and its in-states are still the
  // frozen snapshots of `prev`'s (same_as): the rows are a function of
  // exactly these inputs. Persistence runs per top-level loop tree; a
  // tree whose every node adopted its rows keeps `prev`'s assignments,
  // and any other tree recomputes them from rows whose
  // `persistent_loop` is reset, because "outermost qualifying loop
  // wins" must not start from stale values. `prev` is only read.
  Start run(const CacheAnalysis* prev = nullptr,
            const std::vector<char>* instance_clean = nullptr,
            const std::vector<char>* node_clean = nullptr);

  // Per node: classification of each instruction fetch (index-aligned
  // with the block's instruction list).
  std::span<const FetchClass> fetch_classes(int node) const {
    const auto n = static_cast<std::size_t>(node);
    return {fetch_rows_.data() + fetch_begin_[n], fetch_begin_[n + 1] - fetch_begin_[n]};
  }
  // Per node: classification of each data access (index-aligned with
  // ValueAnalysis::accesses(node)).
  std::span<const DataClass> data_classes(int node) const {
    const auto n = static_cast<std::size_t>(node);
    return {data_rows_.data() + data_begin_[n], data_count_[n]};
  }

  // True when `node`'s final classification rows (persistence
  // included) were adopted from the previous run; adopted_rows()
  // counts such nodes.
  bool rows_adopted(int node) const {
    return !rows_adopted_.empty() && rows_adopted_[static_cast<std::size_t>(node)] != 0;
  }
  std::size_t adopted_rows() const {
    return static_cast<std::size_t>(
        std::count(rows_adopted_.begin(), rows_adopted_.end(), char{1}));
  }

  struct Stats {
    unsigned fetch_hit = 0, fetch_miss = 0, fetch_nc = 0, fetch_uncached = 0;
    unsigned data_hit = 0, data_miss = 0, data_nc = 0, data_uncached = 0;
    unsigned persistent = 0;
    bool operator==(const Stats&) const = default;
  };
  Stats stats() const;

private:
  struct CachePair {
    AbsCache must;
    AbsCache may;
    bool join_with(const CachePair& other) {
      const bool a = must.join_with(other.must);
      const bool b = may.join_with(other.may);
      return a || b;
    }
    bool operator==(const CachePair& other) const {
      return must == other.must && may == other.may;
    }
    bool same_as(const CachePair& other) const {
      return must.same_as(other.must) && may.same_as(other.may);
    }
  };

  // Memoized candidate cache lines of data access `index` in `node`
  // (index-aligned with ValueAnalysis::accesses); empty = unknown line.
  std::span<const std::uint32_t> lines_for(int node, std::size_t index) const;
  AccessClass classify(const CachePair& state, std::span<const std::uint32_t> lines) const;
  static void apply_access(CachePair& state, std::span<const std::uint32_t> lines);
  // Replays `node`'s memoized transfer recipe against the abstract
  // states. `record` additionally writes the classification rows
  // (fetch_/data_) from the pre-access states.
  void transfer(int node, CachePair& icache, CachePair& dcache, bool record);
  // Join an out-state pair into `target`'s in-state; returns true when
  // the in-state grew. The single join policy both schedules share —
  // the rounds engine and the round-robin reference must never diverge
  // here.
  bool join_target(int target, const CachePair& icache, const CachePair& dcache);
  // Join a node's out-state into every feasible successor, calling
  // `push_changed(target)` for each successor whose in-state grew.
  template <typename PushFn>
  void join_successors(int node, const CachePair& icache, const CachePair& dcache,
                       PushFn&& push_changed);
  // `prev`/`instance_clean` non-null: warm mode (see the public run
  // overload). Returns false when a warm attempt diverged and the
  // states must be discarded; cold mode always returns true.
  bool fixpoint_instance_rounds(const CacheAnalysis* prev,
                                const std::vector<char>* instance_clean);
  void fixpoint_round_robin();
  // Warm-start admission: no loop of the forest may span a clean and a
  // dirty instance (interprocedural feedback through the boundary
  // would break the componentwise least-fixpoint argument).
  bool warm_guard_ok(const std::vector<char>& instance_clean) const;
  // Post-fixpoint boundary audit for warm runs: previously feasible
  // dirty->clean edges must stay feasible and deliver out-states
  // bit-identical to the previous run's.
  bool warm_boundary_ok(const CacheAnalysis& prev,
                        const std::vector<char>& instance_clean);
  // Classification recording against the converged in-states without
  // cloning them: per-set value images are materialized lazily as the
  // node's recipe replays (production path; the round-robin schedule
  // keeps the classic whole-state transfer, which pins both
  // implementations to identical classifications in the differential
  // tests).
  void record_node_lazy(int node);
  // Degraded-mode recording: classification rows derived from the
  // recipe alone, never from the (possibly un-converged) abstract
  // states. Structural verdicts survive — uncached stays uncached,
  // same-line fetches stay always-hit — and every state-dependent
  // access is not-classified.
  void record_node_conservative(int node);
  // The node's fetch rows, and the next free slot of its data rows.
  std::span<FetchClass> fetch_row(std::size_t node) {
    return {fetch_rows_.data() + fetch_begin_[node], fetch_begin_[node + 1] - fetch_begin_[node]};
  }
  void push_data_row(std::size_t node, const DataClass& dc);
  // `prev` non-null: adopt per tree as described at run().
  void persistence(const CacheAnalysis* prev);
  void persistence_tree(const std::vector<int>& loop_ids);

  const cfg::Supergraph& sg_;
  const cfg::LoopForest& loops_;
  const ValueAnalysis& values_;
  const mem::MemoryMap& memmap_;
  mem::CacheConfig iconfig_;
  mem::CacheConfig dconfig_;
  Schedule schedule_ = Schedule::priority;
  std::vector<int> schedule_priorities_;
  TransferCache* transfers_ = nullptr;
  ThreadPool* pool_ = nullptr;
  const AnalysisGovernor* governor_ = nullptr;
  bool degraded_ = false;
  std::vector<CachePair> in_i_;
  std::vector<CachePair> in_d_;
  // unsigned char, not vector<bool>: parallel instance rounds mark
  // disjoint intra-instance targets concurrently, and vector<bool>
  // packs bits into shared words.
  std::vector<unsigned char> has_state_;
  // Classification rows in two flat tables. Node n owns the fetch rows
  // [fetch_begin_[n], fetch_begin_[n + 1]), one per instruction, and
  // the first data_count_[n] of the data rows [data_begin_[n],
  // data_begin_[n + 1]), one slot per memory-access instruction.
  std::vector<std::uint32_t> fetch_begin_;
  std::vector<std::uint32_t> data_begin_;
  std::vector<std::uint32_t> data_count_;
  std::vector<FetchClass> fetch_rows_;
  std::vector<DataClass> data_rows_;
  // Per node: rows adopted from the previous run (empty: none were).
  std::vector<char> rows_adopted_;
};

} // namespace wcet::analysis
