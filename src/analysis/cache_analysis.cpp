#include "analysis/cache_analysis.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <optional>
#include <set>

#include "analysis/transfer_cache.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"
#include "support/fault_inject.hpp"
#include "support/instance_rounds.hpp"
#include "support/thread_pool.hpp"

namespace wcet::analysis {

namespace {

// Telemetry only (see CacheJoinStats): batched per join_with call, so
// the hot loop pays two relaxed atomic adds, not one per set.
std::atomic<std::uint64_t> g_cache_joins{0};
std::atomic<std::uint64_t> g_cache_join_skips{0};

} // namespace

CacheJoinStats cache_join_stats() {
  return {g_cache_joins.load(std::memory_order_relaxed),
          g_cache_join_skips.load(std::memory_order_relaxed)};
}

void reset_cache_join_stats() {
  g_cache_joins.store(0, std::memory_order_relaxed);
  g_cache_join_skips.store(0, std::memory_order_relaxed);
}

const char* to_string(AccessClass cls) {
  switch (cls) {
  case AccessClass::always_hit: return "AH";
  case AccessClass::always_miss: return "AM";
  case AccessClass::not_classified: return "NC";
  case AccessClass::uncached: return "UC";
  }
  return "?";
}

AbsCache::AbsCache(const mem::CacheConfig& config, bool must)
    : config_(config), must_(must), sets_(config.sets) {}

bool AbsCache::contains(std::uint32_t line) const {
  if (!config_.enabled) return false;
  return sets_.at(config_.set_index(line * config_.line_bytes)).contains(line);
}

void AbsCache::age_set(unsigned set_index, unsigned below_age) {
  if (sets_.at(set_index).empty()) return; // nothing to age, keep the leaf shared
  SetImage& image = sets_.mutate(set_index);
  image.retain([&](std::uint32_t, unsigned& age) {
    if (age < below_age) ++age;
    return age < config_.ways;
  });
  if (image.empty()) sets_.clear_leaf(set_index);
}

void AbsCache::access_set(SetImage& set, std::uint32_t line) const {
  const auto it = set.find(line);
  const unsigned old_age = it != set.end() ? it->second : config_.ways;
  if (it != set.end() && (must_ || old_age + 1 < config_.ways)) {
    // In-place fast path for a present line: no entry can age out
    // (must: aged entries stay at or below old_age <= ways-1; may:
    // at or below old_age+1 < ways), and the accessed entry rewrites
    // to age 0 where it sits — one pass, no shifting, no reinsertion.
    for (auto& [l, age] : set) {
      if (l == line) {
        age = 0;
      } else if (must_ ? age < old_age : age <= old_age) {
        ++age;
      }
    }
    return;
  }
  if (must_) {
    // Lines younger than the accessed line's (upper-bound) age grow
    // older; on a potential miss everything ages.
    set.retain([&](std::uint32_t, unsigned& age) {
      if (age < old_age) ++age;
      return age < config_.ways;
    });
  } else {
    // May analysis: lines whose lower-bound age is <= the accessed
    // line's lower-bound age grow older; absent line == certain miss.
    set.retain([&](std::uint32_t other_line, unsigned& age) {
      if (other_line != line && age <= old_age) ++age;
      return age < config_.ways;
    });
  }
  set[line] = 0;
}

bool AbsCache::access_into(const SetImage& base, std::uint32_t line, SetImage& out) const {
  // Mirrors access_set exactly, emitting into `out` instead of
  // rewriting in place, and reporting out != base on the fly.
  const auto it = base.find(line);
  const unsigned old_age = it != base.end() ? it->second : config_.ways;
  out.clear();
  bool changed = false;
  bool inserted = false;
  for (const auto& [l, age] : base) {
    if (l == line) {
      out.append_sorted(line, 0u);
      inserted = true;
      changed |= age != 0;
      continue;
    }
    unsigned aged = age;
    if (must_ ? age < old_age : age <= old_age) ++aged;
    if (aged >= config_.ways) {
      changed = true; // dropped
      continue;
    }
    if (!inserted && l > line) {
      out.append_sorted(line, 0u); // line absent in base: insert in order
      inserted = true;
      changed = true;
    }
    out.append_sorted(l, aged);
    changed |= aged != age;
  }
  if (!inserted) {
    out.append_sorted(line, 0u);
    changed = true;
  }
  return changed;
}

bool AbsCache::access_changes(const SetImage& set, std::uint32_t line) const {
  // Mirrors access_set exactly. The accessed line lands at age 0, so
  // the image changes unless the line is already youngest — and, in the
  // may variant, no *other* line shares age 0 (those would age).
  const auto it = set.find(line);
  if (it == set.end() || it->second != 0) return true;
  if (must_) return false; // only ages strictly younger than 0: none
  for (const auto& [other_line, age] : set) {
    if (other_line != line && age == 0) return true;
  }
  return false;
}

void AbsCache::access(std::uint32_t line) {
  if (!config_.enabled) return;
  const unsigned s = config_.set_index(line * config_.line_bytes);
  // At convergence most accesses re-touch an already-youngest line;
  // skipping the detach keeps the leaf shared for the join fast path.
  if (!access_changes(sets_.at(s), line)) return;
  access_set(sets_.mutate(s), line);
}

void AbsCache::access_one_of(std::span<const std::uint32_t> lines) {
  if (!config_.enabled || lines.empty()) return;
  if (lines.size() == 1) {
    access(lines[0]);
    return;
  }
  // Join over the alternatives, computed per affected set: an
  // alternative only rewrites the set image of its own line, so for
  // every other set it contributes the unmodified original image, and
  // the join is pointwise per set. The join is a semilattice operation
  // (must: intersection/max age; may: union/min age), so the
  // accumulation order is irrelevant and the result is the same
  // canonical sorted image the whole-cache formulation produced —
  // without copying the untouched sets at all.
  std::vector<unsigned> affected;
  affected.reserve(lines.size());
  SetImage scratch;
  for_each_candidate_set(config_, lines, affected, [&](unsigned s, bool outside) {
    const SetImage& original = sets_.at(s);
    SetImage result;
    bool first = true;
    for (const std::uint32_t line : lines) {
      if (config_.set_index(line * config_.line_bytes) != s) continue;
      scratch = original;
      access_set(scratch, line);
      if (first) {
        result = std::move(scratch);
        first = false;
      } else {
        join_set(result, scratch);
      }
    }
    if (outside) join_set(result, original);
    // Install only a real change: an identical result would trade the
    // shared leaf for a fresh allocation and defeat join gating.
    if (result == original) return;
    if (result.empty()) {
      sets_.clear_leaf(s);
    } else {
      sets_.set_leaf(s, std::move(result));
    }
  });
}

void AbsCache::access_unknown() {
  if (!config_.enabled) return;
  if (must_) {
    // The access may target any set: age everything (the paper's
    // whole-cache invalidation effect under low associativity).
    for (unsigned s = 0; s < config_.sets; ++s) age_set(s, config_.ways);
  }
  // May: every line may still be cached (the access may have gone
  // elsewhere); ages are lower bounds and stay valid.
}

bool AbsCache::join_set(SetImage& mine, const SetImage& theirs) const {
  if (must_) {
    // Intersection, maximal age: linear merge-join over the two
    // sorted sets.
    auto ot = theirs.begin();
    bool aged = false;
    const bool dropped = mine.retain([&](std::uint32_t line, unsigned& age) {
      while (ot != theirs.end() && ot->first < line) ++ot;
      if (ot == theirs.end() || ot->first != line) return false;
      if (ot->second > age) {
        age = ot->second;
        aged = true;
      }
      return true;
    });
    return aged || dropped;
  }
  // Union, minimal age: merge the sorted sets into a reused scratch
  // buffer and copy back only when something actually changes (the
  // thread_local keeps the hot join loops allocation-free; the merge is
  // a pure value computation, so worker identity cannot affect results).
  if (theirs.empty()) return false;
  static thread_local std::vector<std::pair<std::uint32_t, unsigned>> merged;
  merged.clear();
  auto a = mine.begin();
  auto b = theirs.begin();
  bool set_changed = false;
  while (a != mine.end() || b != theirs.end()) {
    if (b == theirs.end() || (a != mine.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == mine.end() || b->first < a->first) {
      merged.push_back(*b++);
      set_changed = true;
    } else {
      const unsigned age = std::min(a->second, b->second);
      if (age < a->second) set_changed = true;
      merged.push_back({a->first, age});
      ++a;
      ++b;
    }
  }
  if (set_changed) {
    mine.assign_range(merged.begin(), merged.end());
    return true;
  }
  return false;
}

bool AbsCache::must_join_changes(const SetImage& mine, const SetImage& theirs) const {
  // Mirrors the must branch of join_set: change iff any of my lines is
  // absent from theirs (dropped) or carries a larger age there (aged).
  auto ot = theirs.begin();
  for (const auto& [line, age] : mine) {
    while (ot != theirs.end() && ot->first < line) ++ot;
    if (ot == theirs.end() || ot->first != line) return true;
    if (ot->second > age) return true;
  }
  return false;
}

bool AbsCache::may_join_changes(const SetImage& mine, const SetImage& theirs) const {
  // Mirrors the may branch of join_set: change iff theirs holds a line
  // I lack, or a smaller age for a shared line.
  auto it = mine.begin();
  for (const auto& [line, age] : theirs) {
    while (it != mine.end() && it->first < line) ++it;
    if (it == mine.end() || it->first != line) return true;
    if (age < it->second) return true;
  }
  return false;
}

bool AbsCache::join_core(unsigned s, const SetImage& theirs,
                         const CowVec<SetImage>* alias_source) {
  // One join-gating implementation for both flavors: `alias_source`
  // non-null means `theirs` is that vector's leaf for `s`, so a result
  // that lands exactly on their value can alias the leaf (keeping the
  // pointer-equality skip alive for the next propagation) instead of
  // allocating a copy.
  const SetImage& mine = sets_.at(s);
  if (must_) {
    if (mine.empty()) return false; // intersection with empty stays empty
    if (!must_join_changes(mine, theirs)) return false;
  } else {
    if (theirs.empty()) return false; // union adds nothing
    if (mine.empty()) {
      // Wholesale replacement.
      if (alias_source != nullptr) {
        sets_.share_leaf_from(s, *alias_source);
      } else {
        sets_.set_leaf(s, theirs);
      }
      return true;
    }
    if (!may_join_changes(mine, theirs)) return false;
  }
  // Uniquely owned leaf: merge straight into it — no clone, no fresh
  // block (the common case once a target has stopped being shared).
  if (sets_.mutates_in_place(s)) {
    SetImage& image = sets_.mutate(s);
    join_set(image, theirs);
    if (image.empty()) sets_.clear_leaf(s);
    return true;
  }
  SetImage merged = mine;
  join_set(merged, theirs);
  if (merged.empty()) {
    sets_.clear_leaf(s); // canonical empty: null leaf
  } else if (alias_source != nullptr && merged == theirs) {
    sets_.share_leaf_from(s, *alias_source);
  } else {
    sets_.set_leaf(s, std::move(merged));
  }
  return true;
}

bool AbsCache::join_image(unsigned s, const SetImage& theirs) {
  return join_core(s, theirs, nullptr);
}

bool AbsCache::join_leaf(unsigned s, const AbsCache& other) {
  return join_core(s, other.sets_.at(s), &other.sets_);
}

bool AbsCache::join_with(const AbsCache& other) {
  WCET_CHECK(must_ == other.must_, "joining must with may cache");
  // Pointer-equality gating: a shared leaf is the same value on both
  // sides, and join(x, x) = x, so it needs no merge and no change
  // report. Dry-run predicates keep unchanged targets shared too, so a
  // no-op join never detaches anything.
  if (sets_.same_as(other.sets_)) {
    g_cache_join_skips.fetch_add(config_.sets, std::memory_order_relaxed);
    return false;
  }
  bool changed = false;
  std::uint64_t joins = 0;
  std::uint64_t skips = 0;
  for (unsigned s = 0; s < config_.sets; ++s) {
    if (sets_.leaf_same_as(s, other.sets_)) {
      ++skips;
      continue;
    }
    ++joins;
    changed |= join_leaf(s, other);
  }
  g_cache_joins.fetch_add(joins, std::memory_order_relaxed);
  g_cache_join_skips.fetch_add(skips, std::memory_order_relaxed);
  return changed;
}

void AbsCache::apply_one_of_image(SetImage& image, std::span<const std::uint32_t> lines,
                                  bool outside, SetImage& scratch_alt,
                                  SetImage& scratch_result) const {
  // The per-set block of access_one_of, on a detached value image. The
  // two scratches are caller-owned and only ever swapped, so their heap
  // buffers survive across calls.
  scratch_result.clear();
  bool first = true;
  for (const std::uint32_t line : lines) {
    scratch_alt = image;
    access_set(scratch_alt, line);
    if (first) {
      std::swap(scratch_result, scratch_alt);
      first = false;
    } else {
      join_set(scratch_result, scratch_alt);
    }
  }
  if (outside) join_set(scratch_result, image);
  std::swap(image, scratch_result);
}

void AbsCache::age_image(SetImage& image) const {
  // The must half of access_unknown on one set (may is the identity).
  image.retain([&](std::uint32_t, unsigned& age) {
    ++age;
    return age < config_.ways;
  });
}

bool AbsCache::join_with_overlay(const AbsCache& source, std::span<const unsigned> sets,
                                 std::span<const unsigned char> changed,
                                 const SetImage* images) {
  WCET_CHECK(must_ == source.must_, "joining must with may cache");
  bool any_changed_image = false;
  for (const unsigned char c : changed) any_changed_image |= c != 0;
  if (!any_changed_image && sets_.same_as(source.sets_)) {
    // Identity transfer into a pointer-identical state: join(x, x) = x.
    g_cache_join_skips.fetch_add(config_.sets, std::memory_order_relaxed);
    return false;
  }
  // A set needs work exactly when its overlay image changed or the two
  // leaves differ. Build that selection as a bitmask per 64-set chunk:
  // the identity diff over the contiguous leaf arrays is a tight
  // vectorizable loop, so the (common) mostly-shared edge costs a few
  // SIMD compares instead of a per-set scan with branches.
  bool result = false;
  std::uint64_t joins = 0;
  std::size_t cursor = 0;
  for (unsigned base = 0; base < config_.sets; base += 64) {
    // Re-fetch the leaf arrays per chunk: a join in an earlier chunk
    // may have detached this state's spine (releasing its reference to
    // the old array, whose last co-owner could drop it concurrently),
    // and a self-loop join detaches the source's. Within one chunk the
    // mask is built before any mutation, so the pointers stay valid.
    const auto* mine_leaves = sets_.leaf_data();
    const auto* source_leaves = source.sets_.leaf_data();
    const unsigned chunk = std::min(64u, config_.sets - base);
    std::uint64_t pending = 0;
    for (unsigned i = 0; i < chunk; ++i) {
      pending |= static_cast<std::uint64_t>(mine_leaves[base + i].identity() !=
                                            source_leaves[base + i].identity())
                 << i;
    }
    for (; cursor < sets.size() && sets[cursor] < base + chunk; ++cursor) {
      if (changed[cursor] != 0) pending |= std::uint64_t{1} << (sets[cursor] - base);
    }
    while (pending != 0) {
      const unsigned s = base + static_cast<unsigned>(std::countr_zero(pending));
      pending &= pending - 1;
      ++joins;
      // Re-locate the overlay entry for s (if any) — the cursor has
      // already advanced past this chunk.
      const auto it = std::lower_bound(sets.begin(), sets.end(), s);
      if (it != sets.end() && *it == s &&
          changed[static_cast<std::size_t>(it - sets.begin())] != 0) {
        result |= join_image(s, images[it - sets.begin()]);
      } else {
        result |= join_leaf(s, source);
      }
    }
  }
  g_cache_joins.fetch_add(joins, std::memory_order_relaxed);
  g_cache_join_skips.fetch_add(config_.sets - joins, std::memory_order_relaxed);
  return result;
}

void AbsCache::install_image(unsigned s, const SetImage& image) {
  if (image.empty()) {
    sets_.clear_leaf(s);
  } else {
    sets_.set_leaf(s, image);
  }
}

bool AbsCache::operator==(const AbsCache& other) const {
  return must_ == other.must_ && sets_ == other.sets_;
}

CacheAnalysis::CacheAnalysis(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                             const ValueAnalysis& values, const mem::MemoryMap& memmap,
                             const mem::CacheConfig& icache, const mem::CacheConfig& dcache,
                             Schedule schedule, std::vector<int> schedule_priorities,
                             TransferCache* transfers, ThreadPool* pool)
    : sg_(sg), loops_(loops), values_(values), memmap_(memmap), iconfig_(icache),
      dconfig_(dcache), schedule_(schedule),
      schedule_priorities_(std::move(schedule_priorities)), transfers_(transfers),
      pool_(pool) {
  WCET_CHECK(transfers_ != nullptr && transfers_->values() == &values_,
             "CacheAnalysis needs the TransferCache its ValueAnalysis published into");
  WCET_CHECK(schedule_ == Schedule::round_robin ||
                 schedule_priorities_.size() == sg.nodes().size(),
             "CacheAnalysis needs one schedule priority per supergraph node");
  const std::size_t n = sg.nodes().size();
  in_i_.assign(n, CachePair{AbsCache::cold(iconfig_, true), AbsCache::cold(iconfig_, false)});
  in_d_.assign(n, CachePair{AbsCache::cold(dconfig_, true), AbsCache::cold(dconfig_, false)});
  has_state_.assign(n, 0);
  fetch_begin_.assign(n + 1, 0);
  data_begin_.assign(n + 1, 0);
  data_count_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const cfg::CfgBlock& block = *sg.nodes()[v].block;
    const auto accesses = std::count_if(block.insts.begin(), block.insts.end(),
                                        [](const isa::Inst& inst) { return inst.is_mem_access(); });
    fetch_begin_[v + 1] = fetch_begin_[v] + static_cast<std::uint32_t>(block.insts.size());
    data_begin_[v + 1] = data_begin_[v] + static_cast<std::uint32_t>(accesses);
  }
  fetch_rows_.resize(fetch_begin_[n]);
  data_rows_.resize(data_begin_[n]);
}

void CacheAnalysis::push_data_row(std::size_t node, const DataClass& dc) {
  std::uint32_t& count = data_count_[node];
  WCET_CHECK(data_begin_[node] + count < data_begin_[node + 1],
             "more data rows than memory-access instructions");
  data_rows_[data_begin_[node] + count++] = dc;
}

std::span<const std::uint32_t> CacheAnalysis::lines_for(int node, std::size_t index) const {
  return transfers_->data_lines(node)[index];
}

AccessClass CacheAnalysis::classify(const CachePair& state,
                                    std::span<const std::uint32_t> lines) const {
  if (lines.empty()) return AccessClass::not_classified;
  bool all_must = true;
  bool none_may = true;
  for (const std::uint32_t line : lines) {
    if (!state.must.contains(line)) all_must = false;
    if (state.may.contains(line)) none_may = false;
  }
  if (all_must) return AccessClass::always_hit;
  if (none_may) return AccessClass::always_miss;
  return AccessClass::not_classified;
}

void CacheAnalysis::apply_access(CachePair& state, std::span<const std::uint32_t> lines) {
  if (lines.empty()) {
    state.must.access_unknown();
    state.may.access_unknown();
  } else {
    state.must.access_one_of(lines);
    state.may.access_one_of(lines);
  }
}

void CacheAnalysis::transfer(int node, CachePair& icache, CachePair& dcache, bool record) {
  // The node's accesses were decoded into a recipe once (memory
  // regions, line numbers, cacheability, candidate-line tables); every
  // visit replays that recipe against the abstract states. Fetches
  // touch only the i-cache and data accesses only the d-cache, so the
  // two replay loops need not interleave per instruction: the resulting
  // states and classifications are identical to the interleaved walk.
  using Recipe = TransferCache::CacheRecipe;
  const Recipe& recipe = transfers_->cache_recipe(node);

  if (!record) {
    // Fixpoint mode: state evolution only, no classification rows.
    for (const std::uint32_t line : recipe.fetch_apply) {
      icache.must.access(line);
      icache.may.access(line);
    }
    for (const Recipe::Data& d : recipe.data) {
      switch (d.kind) {
      case Recipe::DataKind::bypass: break;
      case Recipe::DataKind::disturb:
        dcache.must.access_unknown();
        dcache.may.access_unknown();
        break;
      case Recipe::DataKind::cached:
        apply_access(dcache, lines_for(node, d.access_index));
        break;
      }
    }
    return;
  }

  const auto id = static_cast<std::size_t>(node);
  const std::span<FetchClass> fetch_out = fetch_row(id);
  std::fill(fetch_out.begin(), fetch_out.end(), FetchClass{});
  data_count_[id] = 0;
  for (std::size_t i = 0; i < recipe.fetch.size(); ++i) {
    switch (recipe.fetch[i].kind) {
    case Recipe::FetchKind::uncached:
      fetch_out[i].cls = AccessClass::uncached;
      break;
    case Recipe::FetchKind::same_line:
      // Same line as the immediately preceding fetch: guaranteed hit.
      fetch_out[i].cls = AccessClass::always_hit;
      break;
    case Recipe::FetchKind::line: {
      const std::uint32_t lines[1] = {recipe.fetch[i].line};
      fetch_out[i].cls = classify(icache, lines);
      apply_access(icache, lines);
      break;
    }
    }
  }
  for (const Recipe::Data& d : recipe.data) {
    DataClass dc;
    dc.pc = d.pc;
    dc.is_store = d.is_store;
    switch (d.kind) {
    case Recipe::DataKind::bypass:
      // Write-through store, unreachable access, or uncacheable range.
      dc.cls = AccessClass::uncached;
      break;
    case Recipe::DataKind::disturb:
      // Partially cacheable imprecise range: the concrete access may be
      // anything from a cache hit to an uncached device read, so it is
      // not-classified for timing (hit in the BCET sense, full miss in
      // the WCET sense — `uncached` here would under-charge nothing but
      // over-claim the best case) and disturbs the abstract cache.
      dc.cls = AccessClass::not_classified;
      dcache.must.access_unknown();
      dcache.may.access_unknown();
      break;
    case Recipe::DataKind::cached: {
      const std::span<const std::uint32_t> lines = lines_for(node, d.access_index);
      dc.cls = classify(dcache, lines);
      dc.candidate_count = std::max<unsigned>(1, static_cast<unsigned>(lines.size()));
      apply_access(dcache, lines);
      break;
    }
    }
    push_data_row(id, dc);
  }
}

bool CacheAnalysis::join_target(int target, const CachePair& icache,
                                const CachePair& dcache) {
  const auto t = static_cast<std::size_t>(target);
  if (!has_state_[t]) {
    in_i_[t] = icache;
    in_d_[t] = dcache;
    has_state_[t] = 1;
    return true;
  }
  bool changed = in_i_[t].join_with(icache);
  changed |= in_d_[t].join_with(dcache);
  return changed;
}

template <typename PushFn>
void CacheAnalysis::join_successors(int node, const CachePair& icache,
                                    const CachePair& dcache, PushFn&& push_changed) {
  for (const int eid : sg_.node(node).succ_edges) {
    if (!values_.edge_feasible(eid)) continue;
    const int target = sg_.edge(eid).to;
    if (join_target(target, icache, dcache)) push_changed(target);
  }
}

bool CacheAnalysis::warm_guard_ok(const std::vector<char>& instance_clean) const {
  for (const cfg::Loop& loop : loops_.loops()) {
    bool has_clean = false;
    bool has_dirty = false;
    for (const int nid : loop.nodes) {
      const int instance = sg_.node(nid).instance;
      if (instance_clean[static_cast<std::size_t>(instance)] != 0) {
        has_clean = true;
      } else {
        has_dirty = true;
      }
      if (has_clean && has_dirty) return false;
    }
  }
  return true;
}

bool CacheAnalysis::warm_boundary_ok(const CacheAnalysis& prev,
                                     const std::vector<char>& instance_clean) {
  // A frozen clean region is the new least fixpoint only if its inputs
  // are *exactly* the previous run's. The no-change check during the
  // run proves deliveries never exceeded the frozen states; this audit
  // closes the other direction — a dirty instance that now delivers
  // strictly *less* (or stopped delivering) would make the true least
  // fixpoint smaller than the frozen states.
  for (const cfg::SgEdge& edge : sg_.edges()) {
    const int from_inst = sg_.node(edge.from).instance;
    const int to_inst = sg_.node(edge.to).instance;
    if (from_inst == to_inst) continue;
    if (instance_clean[static_cast<std::size_t>(from_inst)] != 0) continue;
    if (instance_clean[static_cast<std::size_t>(to_inst)] == 0) continue;
    const bool prev_feasible = prev.values_.edge_feasible(edge.id) &&
                               prev.has_state_[static_cast<std::size_t>(edge.from)] != 0;
    if (!prev_feasible) continue; // newly feasible edges were absorb-checked live
    if (!values_.edge_feasible(edge.id) ||
        has_state_[static_cast<std::size_t>(edge.from)] == 0) {
      return false;
    }
    // Compare the materialized out-states of the dirty boundary source
    // under both runs (the classic whole-state replay; `record` off so
    // classification rows stay untouched).
    CachePair new_i = in_i_[static_cast<std::size_t>(edge.from)];
    CachePair new_d = in_d_[static_cast<std::size_t>(edge.from)];
    transfer(edge.from, new_i, new_d, false);
    CachePair old_i = prev.in_i_[static_cast<std::size_t>(edge.from)];
    CachePair old_d = prev.in_d_[static_cast<std::size_t>(edge.from)];
    // prev is logically const here: transfer with record=false only
    // reads converged state and replays the (immutable) recipe.
    const_cast<CacheAnalysis&>(prev).transfer(edge.from, old_i, old_d, false);
    if (!(new_i == old_i) || !(new_d == old_d)) return false;
  }
  return true;
}

bool CacheAnalysis::fixpoint_instance_rounds(const CacheAnalysis* prev,
                                             const std::vector<char>* instance_clean) {
  // Deterministic per-instance rounds (support/instance_rounds.hpp),
  // mirroring the value-analysis engine: each dirty function instance
  // converges a local loop-nest worklist over its own nodes — in
  // parallel on the pool, touching disjoint in-state slots —
  // and cross-instance call/ret out-states are buffered and merged
  // sequentially in ascending (instance, edge) order. Re-queueing is
  // gated on exact change reporting. The must/may domain has no
  // widening, so this reaches the same least fixpoint as any other
  // schedule; the fixed round/merge order additionally makes every
  // intermediate state a pure function of the graph.
  //
  // A visit never materializes its out-state. The node's per-set access
  // programs (CacheRecipe::fetch_groups / data_groups) are replayed
  // into per-instance scratch images — the overlay — and successors
  // join against (in-state, overlay): untouched sets keep their shared
  // COW leaves and join by pointer identity, touched sets whose program
  // turned out to be the identity do too, and only the genuinely
  // transformed sets take a value join. In the converged steady state a
  // visit therefore allocates nothing at all. The out-state is
  // materialized only where a CachePair must outlive the visit: the
  // cross-instance merge buffers and first-touch installs of fresh
  // targets. The record sweep and the round-robin reference still run
  // the classic whole-state transfer; the differential tests pin the
  // two paths to identical classifications.
  using Recipe = TransferCache::CacheRecipe;
  InstanceRoundEngine engine(sg_, loops_, schedule_priorities_);
  engine.set_governor(governor_);
  const std::size_t num_instances = sg_.instances().size();

  struct OutState {
    CachePair i;
    CachePair d;
  };
  std::vector<std::map<int, OutState>> cross(num_instances);

  // Overlay scratch, per instance (never per worker: instances touch
  // only their own slot, so parallel rounds stay race-free and the
  // replay is deterministic). Image buffers are reused across visits.
  struct Overlay {
    std::vector<unsigned> sets; // touched set indices, ascending
    std::vector<unsigned char> must_changed, may_changed;
    std::vector<AbsCache::SetImage> must_img, may_img;
    std::size_t count = 0;

    void begin() { count = 0; }
    std::size_t append(unsigned s) {
      const std::size_t k = count++;
      if (sets.size() < count) {
        sets.push_back(s);
        must_changed.push_back(0);
        may_changed.push_back(0);
        must_img.emplace_back();
        may_img.emplace_back();
      } else {
        sets[k] = s;
        must_changed[k] = 0;
        may_changed[k] = 0;
      }
      return k;
    }
    std::span<const unsigned> set_span() const { return {sets.data(), count}; }
  };
  struct Scratch {
    Overlay i, d;
    AbsCache::SetImage alt, acc; // apply_one_of_image buffers
  };
  std::vector<Scratch> scratch(num_instances);

  // Warm mode: clean instances are frozen at `prev`'s converged states;
  // any delivery that would change (or first-touch) a frozen in-state
  // diverges the run — workers set the flag, the round barrier stops
  // the engine, and the caller discards every state and reruns cold.
  const bool warm = prev != nullptr && instance_clean != nullptr;
  std::atomic<bool> diverged{false};
  const auto clean_instance = [&](int instance) {
    return warm && (*instance_clean)[static_cast<std::size_t>(instance)] != 0;
  };

  const auto build_fetch_overlay = [&](const Recipe& recipe, const CachePair& in,
                                       Scratch& sc) {
    Overlay& ov = sc.i;
    ov.begin();
    for (const Recipe::FetchGroup& group : recipe.fetch_groups) {
      const std::size_t k = ov.append(group.set);
      const AbsCache::SetImage& base_must = in.must.set_image(group.set);
      const AbsCache::SetImage& base_may = in.may.set_image(group.set);
      if (group.lines.size() == 1) {
        // One access on this set (the norm — consecutive fetch lines
        // map to consecutive sets): fused single-pass emit + diff.
        ov.must_changed[k] = in.must.access_into(base_must, group.lines[0], ov.must_img[k]);
        ov.may_changed[k] = in.may.access_into(base_may, group.lines[0], ov.may_img[k]);
        continue;
      }
      ov.must_img[k] = base_must;
      ov.may_img[k] = base_may;
      for (const std::uint32_t line : group.lines) {
        in.must.apply_access_image(ov.must_img[k], line);
        in.may.apply_access_image(ov.may_img[k], line);
      }
      ov.must_changed[k] = ov.must_img[k] == base_must ? 0 : 1;
      ov.may_changed[k] = ov.may_img[k] == base_may ? 0 : 1;
    }
  };

  const auto build_data_overlay = [&](const Recipe& recipe, const CachePair& in,
                                      Scratch& sc) {
    Overlay& ov = sc.d;
    ov.begin();
    for (const Recipe::DataGroup& group : recipe.data_groups) {
      const AbsCache::SetImage& base_must = in.must.set_image(group.set);
      const AbsCache::SetImage& base_may = in.may.set_image(group.set);
      // Pure-aging program on an empty must image: the identity on both
      // sides — skip without copying anything (the common case for
      // unknown-access nodes once repeated aging has drained the must
      // cache).
      if (!group.any_one_of && base_must.empty()) continue;
      const std::size_t k = ov.append(group.set);
      if (group.ops.size() == 1 && !group.ops[0].age_all &&
          group.ops[0].lines.size() == 1 && !group.ops[0].outside) {
        // Single precise access (e.g. a stack-slot load): fused
        // single-pass emit + diff, same as the fetch fast path.
        const std::uint32_t line = group.ops[0].lines[0];
        ov.must_changed[k] = in.must.access_into(base_must, line, ov.must_img[k]);
        ov.may_changed[k] = in.may.access_into(base_may, line, ov.may_img[k]);
        continue;
      }
      ov.must_img[k] = base_must;
      // age_all ops leave the may side untouched; load it only when a
      // one_of op shows up.
      bool may_loaded = false;
      for (const Recipe::DataSetOp& op : group.ops) {
        if (op.age_all) {
          in.must.age_image(ov.must_img[k]);
          continue;
        }
        if (!may_loaded) {
          ov.may_img[k] = base_may;
          may_loaded = true;
        }
        if (op.lines.size() == 1 && !op.outside) {
          // Degenerate one_of: a plain access on the working images.
          in.must.apply_access_image(ov.must_img[k], op.lines[0]);
          in.may.apply_access_image(ov.may_img[k], op.lines[0]);
          continue;
        }
        in.must.apply_one_of_image(ov.must_img[k], op.lines, op.outside, sc.alt, sc.acc);
        in.may.apply_one_of_image(ov.may_img[k], op.lines, op.outside, sc.alt, sc.acc);
      }
      ov.must_changed[k] = ov.must_img[k] == base_must ? 0 : 1;
      ov.may_changed[k] = may_loaded && !(ov.may_img[k] == base_may) ? 1 : 0;
    }
  };

  // Install the overlay on a snapshot of the in-state: the out-state,
  // materialized. Only needed for state that outlives the visit.
  const auto materialize = [](const CachePair& in, const Overlay& ov) {
    CachePair out = in; // O(1) COW snapshot
    for (std::size_t k = 0; k < ov.count; ++k) {
      if (ov.must_changed[k] != 0) out.must.install_image(ov.sets[k], ov.must_img[k]);
      if (ov.may_changed[k] != 0) out.may.install_image(ov.sets[k], ov.may_img[k]);
    }
    return out;
  };

  const auto join_pair_overlay = [](CachePair& target, const CachePair& source,
                                    const Overlay& ov) {
    const bool a = target.must.join_with_overlay(
        source.must, ov.set_span(), {ov.must_changed.data(), ov.count}, ov.must_img.data());
    const bool b = target.may.join_with_overlay(
        source.may, ov.set_span(), {ov.may_changed.data(), ov.count}, ov.may_img.data());
    return a || b;
  };

  const int entry = sg_.entry_node();
  if (!warm) {
    has_state_[static_cast<std::size_t>(entry)] = 1;
    engine.push(entry);
  } else {
    // Freeze clean instances at the previous converged in-states (O(1)
    // COW snapshots), then schedule the dirty entry plus every clean
    // boundary source with a feasible edge into a dirty instance:
    // processing such a node re-delivers its frozen out-state into the
    // dirty region and — being at fixpoint — changes nothing else.
    for (const cfg::SgNode& n : sg_.nodes()) {
      if (!clean_instance(n.instance)) continue;
      const auto id = static_cast<std::size_t>(n.id);
      in_i_[id] = prev->in_i_[id];
      in_d_[id] = prev->in_d_[id];
      has_state_[id] = prev->has_state_[id];
    }
    if (!clean_instance(sg_.node(entry).instance)) {
      has_state_[static_cast<std::size_t>(entry)] = 1;
      engine.push(entry);
    }
    for (const cfg::SgEdge& e : sg_.edges()) {
      const int fi = sg_.node(e.from).instance;
      const int ti = sg_.node(e.to).instance;
      if (fi == ti || !clean_instance(fi) || clean_instance(ti)) continue;
      if (!values_.edge_feasible(e.id)) continue;
      if (has_state_[static_cast<std::size_t>(e.from)] == 0) continue;
      engine.push(e.from);
    }
  }

  engine.run(
      pool_,
      [&](const int instance, const int node) {
        if (diverged.load(std::memory_order_relaxed)) return;
        Scratch& sc = scratch[static_cast<std::size_t>(instance)];
        const Recipe& recipe = transfers_->cache_recipe(node);
        const CachePair& in_i = in_i_[static_cast<std::size_t>(node)];
        const CachePair& in_d = in_d_[static_cast<std::size_t>(node)];
        build_fetch_overlay(recipe, in_i, sc);
        build_data_overlay(recipe, in_d, sc);
        // Lazily materialized out-state for cross-edge buffers and
        // first-touch installs. Safe to build after a self-loop join:
        // such a join can only grow overlaid-changed sets (which the
        // materialization overrides with the recorded images) — every
        // other set joins with itself, which is a no-op.
        std::optional<OutState> out;
        const auto ensure_out = [&]() {
          if (!out) out.emplace(OutState{materialize(in_i, sc.i), materialize(in_d, sc.d)});
        };
        for (const int eid : sg_.node(node).succ_edges) {
          if (!values_.edge_feasible(eid)) continue;
          const int target = sg_.edge(eid).to;
          if (sg_.node(target).instance != instance) {
            // Call/ret edge: defer to the sequential merge step.
            ensure_out();
            auto& buffered = cross[static_cast<std::size_t>(instance)];
            const auto [it, fresh] = buffered.try_emplace(eid, *out);
            if (!fresh) {
              it->second.i.join_with(out->i);
              it->second.d.join_with(out->d);
            }
            continue;
          }
          const auto t = static_cast<std::size_t>(target);
          if (!has_state_[t]) {
            if (clean_instance(instance)) {
              // A frozen node reaching a previously state-less sibling
              // means feasibility grew inside a "clean" instance.
              diverged.store(true, std::memory_order_relaxed);
              continue;
            }
            ensure_out();
            in_i_[t] = out->i;
            in_d_[t] = out->d;
            has_state_[t] = 1;
            engine.push(target);
            continue;
          }
          bool changed = join_pair_overlay(in_i_[t], in_i, sc.i);
          changed |= join_pair_overlay(in_d_[t], in_d, sc.d);
          if (changed) {
            if (clean_instance(instance)) {
              diverged.store(true, std::memory_order_relaxed);
              continue;
            }
            engine.push(target);
          }
        }
      },
      [&](const int instance) {
        auto& buffered = cross[static_cast<std::size_t>(instance)];
        for (auto& [eid, state] : buffered) {
          const int target = sg_.edge(eid).to;
          const bool frozen = clean_instance(sg_.node(target).instance);
          if (frozen && has_state_[static_cast<std::size_t>(target)] == 0) {
            diverged.store(true, std::memory_order_relaxed);
            continue;
          }
          if (join_target(target, state.i, state.d)) {
            if (frozen) {
              // The delivery grew a frozen clean in-state: the freeze
              // premise is broken, discard the warm run.
              diverged.store(true, std::memory_order_relaxed);
              continue;
            }
            engine.push(target);
          }
        }
        buffered.clear();
      },
      [&](const std::uint64_t round_pops) -> bool {
        WCET_FAULT_POINT("cache:round");
        if (diverged.load(std::memory_order_relaxed)) return false;
        if (governor_ == nullptr) return true;
        // Stopping at a round barrier is sound here — unlike the value
        // analysis — because the record sweep then ignores the
        // un-converged states entirely (record_node_conservative) and
        // classifies every state-dependent access as not-classified.
        const char* trigger = nullptr;
        if (!governor_->consume_cache_visits(round_pops)) trigger = "visit budget";
        else if (governor_->deadline_exceeded()) trigger = "deadline";
        if (trigger == nullptr) return true;
        if (warm) {
          // Budget pressure mid-warm reads as divergence, not
          // degradation: the cold rerun charges the budget honestly
          // (the warm rounds already consumed count against it, which
          // only degrades *earlier* — the sound direction).
          diverged.store(true, std::memory_order_relaxed);
          return false;
        }
        degraded_ = true;
        governor_->record("cache", trigger,
                          "fixpoint stopped at a round barrier; all state-dependent accesses "
                          "classified not-classified (charged as misses), structural verdicts "
                          "kept (bound stays a true upper bound)");
        return false;
      });
  if (diverged.load(std::memory_order_relaxed)) return false;
  if (warm) return warm_boundary_ok(*prev, *instance_clean);
  return true;
}

void CacheAnalysis::fixpoint_round_robin() {
  // Reference iteration: sweep every node in id order, joining
  // out-states into successors, until one full sweep changes nothing.
  // No worklist, no change summaries — the simplest sound schedule the
  // instance-rounds engine is validated against.
  has_state_[static_cast<std::size_t>(sg_.entry_node())] = 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const cfg::SgNode& node : sg_.nodes()) {
      if (!has_state_[static_cast<std::size_t>(node.id)]) continue;
      CachePair icache = in_i_[static_cast<std::size_t>(node.id)];
      CachePair dcache = in_d_[static_cast<std::size_t>(node.id)];
      transfer(node.id, icache, dcache, false);
      join_successors(node.id, icache, dcache, [&](int) { changed = true; });
    }
  }
}

namespace {

// Lazily materialized value view of one abstract cache during the
// record replay: set images are copied out of the shared COW leaves
// only when an access actually evolves them, and a must-side
// access_unknown (which ages *every* set) is deferred as a pending age
// delta applied on materialization — so recording a node costs the sets
// it touches, not a whole-cache clone. Pure value computation on
// reusable buffers; results are a function of (in-state, recipe) only.
struct LazyCacheView {
  const AbsCache* base = nullptr;
  const mem::CacheConfig* config = nullptr;
  std::vector<int> slot; // set -> image index, -1 = unmaterialized
  std::vector<AbsCache::SetImage> images;
  std::vector<unsigned> touched;
  std::size_t used = 0;
  unsigned pending_age = 0;

  void attach(const AbsCache& cache) {
    base = &cache;
    config = &cache.config();
    if (slot.size() != config->sets) {
      slot.assign(config->sets, -1);
    } else {
      for (const unsigned s : touched) slot[s] = -1;
    }
    touched.clear();
    used = 0;
    pending_age = 0;
  }

  AbsCache::SetImage& image_for(unsigned s) {
    int& k = slot[s];
    if (k < 0) {
      k = static_cast<int>(used++);
      touched.push_back(s);
      if (images.size() < used) images.emplace_back();
      AbsCache::SetImage& image = images[static_cast<std::size_t>(k)];
      image = base->set_image(s);
      if (pending_age > 0) {
        image.retain([&](std::uint32_t, unsigned& age) {
          age += pending_age;
          return age < config->ways;
        });
      }
      return image;
    }
    return images[static_cast<std::size_t>(k)];
  }

  bool contains(std::uint32_t line) const {
    if (!config->enabled) return false;
    const unsigned s = config->set_index(line * config->line_bytes);
    if (slot[s] >= 0) return images[static_cast<std::size_t>(slot[s])].contains(line);
    if (pending_age == 0) return base->set_image(s).contains(line);
    // Unmaterialized set under pending aging: a line survives k age_all
    // rounds exactly when age + k stays below the associativity.
    const AbsCache::SetImage& image = base->set_image(s);
    const auto it = image.find(line);
    return it != image.end() && it->second + pending_age < config->ways;
  }

  // The must half of access_unknown: everything ages one step.
  void age_all() {
    ++pending_age;
    for (const unsigned s : touched) {
      images[static_cast<std::size_t>(slot[s])].retain([&](std::uint32_t, unsigned& age) {
        ++age;
        return age < config->ways;
      });
    }
  }
};

} // namespace

void CacheAnalysis::record_node_lazy(int node) {
  using Recipe = TransferCache::CacheRecipe;
  const Recipe& recipe = transfers_->cache_recipe(node);
  const auto id = static_cast<std::size_t>(node);
  // Per-worker scratch: the replay is a pure value computation from the
  // node's (immutable) in-state, so worker identity cannot affect it.
  struct Scratch {
    LazyCacheView i_must, i_may, d_must, d_may;
    AbsCache::SetImage alt, acc;
    std::vector<unsigned> affected;
    std::vector<std::uint32_t> in_set;
  };
  static thread_local Scratch sc;
  const CachePair& in_i = in_i_[id];
  const CachePair& in_d = in_d_[id];
  sc.i_must.attach(in_i.must);
  sc.i_may.attach(in_i.may);
  sc.d_must.attach(in_d.must);
  sc.d_may.attach(in_d.may);

  const std::span<FetchClass> fetch_out = fetch_row(id);
  std::fill(fetch_out.begin(), fetch_out.end(), FetchClass{});
  data_count_[id] = 0;

  for (std::size_t i = 0; i < recipe.fetch.size(); ++i) {
    switch (recipe.fetch[i].kind) {
    case Recipe::FetchKind::uncached:
      fetch_out[i].cls = AccessClass::uncached;
      break;
    case Recipe::FetchKind::same_line:
      fetch_out[i].cls = AccessClass::always_hit;
      break;
    case Recipe::FetchKind::line: {
      const std::uint32_t line = recipe.fetch[i].line;
      const bool all_must = sc.i_must.contains(line);
      const bool none_may = !sc.i_may.contains(line);
      fetch_out[i].cls = all_must  ? AccessClass::always_hit
                         : none_may ? AccessClass::always_miss
                                    : AccessClass::not_classified;
      const unsigned s = iconfig_.set_index(line * iconfig_.line_bytes);
      in_i.must.apply_access_image(sc.i_must.image_for(s), line);
      in_i.may.apply_access_image(sc.i_may.image_for(s), line);
      break;
    }
    }
  }

  for (const Recipe::Data& d : recipe.data) {
    DataClass dc;
    dc.pc = d.pc;
    dc.is_store = d.is_store;
    switch (d.kind) {
    case Recipe::DataKind::bypass:
      dc.cls = AccessClass::uncached;
      break;
    case Recipe::DataKind::disturb:
      dc.cls = AccessClass::not_classified;
      sc.d_must.age_all(); // may side: access_unknown is the identity
      break;
    case Recipe::DataKind::cached: {
      const std::span<const std::uint32_t> lines = lines_for(node, d.access_index);
      if (lines.empty()) {
        dc.cls = AccessClass::not_classified;
        sc.d_must.age_all();
        break;
      }
      bool all_must = true;
      bool none_may = true;
      for (const std::uint32_t line : lines) {
        if (!sc.d_must.contains(line)) all_must = false;
        if (sc.d_may.contains(line)) none_may = false;
      }
      dc.cls = all_must  ? AccessClass::always_hit
               : none_may ? AccessClass::always_miss
                          : AccessClass::not_classified;
      dc.candidate_count = std::max<unsigned>(1, static_cast<unsigned>(lines.size()));
      if (lines.size() == 1) {
        const unsigned s = dconfig_.set_index(lines[0] * dconfig_.line_bytes);
        in_d.must.apply_access_image(sc.d_must.image_for(s), lines[0]);
        in_d.may.apply_access_image(sc.d_may.image_for(s), lines[0]);
        break;
      }
      // access_one_of, applied per affected set (first-appearance
      // order; the per-set joins are order-independent).
      for_each_candidate_set(dconfig_, lines, sc.affected, [&](unsigned s, bool outside) {
        sc.in_set.clear();
        for (const std::uint32_t line : lines) {
          if (dconfig_.set_index(line * dconfig_.line_bytes) == s) {
            sc.in_set.push_back(line);
          }
        }
        in_d.must.apply_one_of_image(sc.d_must.image_for(s), sc.in_set, outside, sc.alt,
                                     sc.acc);
        in_d.may.apply_one_of_image(sc.d_may.image_for(s), sc.in_set, outside, sc.alt,
                                    sc.acc);
      });
      break;
    }
    }
    push_data_row(id, dc);
  }
}

void CacheAnalysis::record_node_conservative(int node) {
  using Recipe = TransferCache::CacheRecipe;
  const Recipe& recipe = transfers_->cache_recipe(node);
  const auto id = static_cast<std::size_t>(node);
  const std::span<FetchClass> fetch_out = fetch_row(id);
  std::fill(fetch_out.begin(), fetch_out.end(), FetchClass{});
  data_count_[id] = 0;
  for (std::size_t i = 0; i < recipe.fetch.size(); ++i) {
    switch (recipe.fetch[i].kind) {
    case Recipe::FetchKind::uncached:
      fetch_out[i].cls = AccessClass::uncached;
      break;
    case Recipe::FetchKind::same_line:
      // Guaranteed by intra-block adjacency (the previous fetch loaded
      // the same line), independent of the incoming cache state.
      fetch_out[i].cls = AccessClass::always_hit;
      break;
    case Recipe::FetchKind::line:
      fetch_out[i].cls = AccessClass::not_classified;
      break;
    }
  }
  for (const Recipe::Data& d : recipe.data) {
    DataClass dc;
    dc.pc = d.pc;
    dc.is_store = d.is_store;
    switch (d.kind) {
    case Recipe::DataKind::bypass:
      dc.cls = AccessClass::uncached;
      break;
    case Recipe::DataKind::disturb:
      dc.cls = AccessClass::not_classified;
      break;
    case Recipe::DataKind::cached: {
      dc.cls = AccessClass::not_classified;
      const std::span<const std::uint32_t> lines = lines_for(node, d.access_index);
      dc.candidate_count = std::max<unsigned>(1, static_cast<unsigned>(lines.size()));
      break;
    }
    }
    push_data_row(id, dc);
  }
}

void CacheAnalysis::persistence(const CacheAnalysis* prev) {
  // Loops are processed per top-level loop tree: sibling trees have
  // disjoint node sets (the forest is an SCC decomposition), so trees
  // fan out across the pool while the depth-based "outermost qualifying
  // loop wins" resolution — which is order-independent across sibling
  // trees — stays exact. The tree's root loop lists all of its nodes.
  std::vector<std::vector<int>> trees;
  for (const cfg::Loop& loop : loops_.loops()) {
    if (loop.parent >= 0) continue;
    const auto adopted = [&](int node) { return rows_adopted(node); };
    // A tree of adopted rows holds prev's final assignments already.
    if (prev != nullptr && std::all_of(loop.nodes.begin(), loop.nodes.end(), adopted)) {
      continue;
    }
    std::vector<int> ids;
    std::vector<int> stack{loop.id};
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      ids.push_back(id);
      for (const int child : loops_.loop(id).children) stack.push_back(child);
    }
    std::sort(ids.begin(), ids.end());
    trees.push_back(std::move(ids));
  }
  const auto run_tree = [&](std::size_t t) {
    if (prev != nullptr) {
      // A mixed tree: adopted rows restart from unassigned persistence
      // and stop counting as adopted (their final rows may differ).
      for (const int node : loops_.loop(trees[t].front()).nodes) {
        if (!rows_adopted(node)) continue;
        const auto id = static_cast<std::size_t>(node);
        for (FetchClass& fc : fetch_row(id)) fc.persistent_loop = -1;
        for (std::uint32_t k = 0; k < data_count_[id]; ++k) {
          data_rows_[data_begin_[id] + k].persistent_loop = -1;
        }
        rows_adopted_[id] = 0;
      }
    }
    persistence_tree(trees[t]);
  };
  parallel_for(pool_, trees.size(), run_tree);
}

void CacheAnalysis::persistence_tree(const std::vector<int>& loop_ids) {
  // For every reducible loop: if all cacheable accesses within the loop
  // are line-precise, count distinct lines per cache set; accesses whose
  // candidate lines fit the associativity alongside their conflicts are
  // persistent (at most one miss per loop entry).
  // Per-set distinct-line counts as sorted flat vectors: collect
  // (set, line) pairs, sort + unique, then collapse runs — no node-pull
  // tree maps on this (pool-fanned) path. Buffers are reused across the
  // tree's loops.
  std::vector<std::pair<unsigned, std::uint32_t>> i_pairs, d_pairs;
  std::vector<std::pair<unsigned, unsigned>> i_counts, d_counts; // set -> distinct lines
  const auto collapse = [](std::vector<std::pair<unsigned, std::uint32_t>>& pairs,
                           std::vector<std::pair<unsigned, unsigned>>& counts) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    counts.clear();
    for (const auto& [set, line] : pairs) {
      (void)line;
      if (counts.empty() || counts.back().first != set) {
        counts.push_back({set, 1});
      } else {
        ++counts.back().second;
      }
    }
  };

  for (const int loop_id : loop_ids) {
    const cfg::Loop& loop = loops_.loop(loop_id);
    if (loop.irreducible) continue; // rule 14.4: no virtual unrolling

    bool i_precise = true;
    bool d_precise = true;
    i_pairs.clear();
    d_pairs.clear();

    // Conflict sets come straight from the memoized recipes: a recipe
    // fetch entry is cacheable exactly when its kind isn't `uncached`,
    // and a data entry participates exactly when its kind is `cached`
    // (stores, unreachable and uncacheable accesses were already
    // filtered at recipe-build time).
    using Recipe = TransferCache::CacheRecipe;
    for (const int node_id : loop.nodes) {
      const Recipe& recipe = transfers_->cache_recipe(node_id);
      for (const Recipe::Fetch& fetch : recipe.fetch) {
        if (fetch.kind == Recipe::FetchKind::uncached) continue;
        i_pairs.push_back(
            {iconfig_.set_index(fetch.line * iconfig_.line_bytes), fetch.line});
      }
      for (const Recipe::Data& d : recipe.data) {
        if (d.kind != Recipe::DataKind::cached) continue;
        const std::span<const std::uint32_t> lines = lines_for(node_id, d.access_index);
        if (lines.empty()) {
          d_precise = false;
          continue;
        }
        for (const std::uint32_t line : lines) {
          d_pairs.push_back({dconfig_.set_index(line * dconfig_.line_bytes), line});
        }
      }
    }
    collapse(i_pairs, i_counts);
    collapse(d_pairs, d_counts);

    const auto line_persists = [](const std::vector<std::pair<unsigned, unsigned>>& counts,
                                  const mem::CacheConfig& config, std::uint32_t line) {
      const unsigned set = config.set_index(line * config.line_bytes);
      const auto it = std::lower_bound(
          counts.begin(), counts.end(), set,
          [](const std::pair<unsigned, unsigned>& c, unsigned s) { return c.first < s; });
      return it != counts.end() && it->first == set && it->second <= config.ways;
    };

    // Assign: outermost qualifying loop wins (fewer entries = tighter).
    for (const int node_id : loop.nodes) {
      const Recipe& recipe = transfers_->cache_recipe(node_id);
      const std::span<FetchClass> fetch_out = fetch_row(static_cast<std::size_t>(node_id));
      for (std::size_t i = 0; i < fetch_out.size(); ++i) {
        if (!i_precise) break;
        if (fetch_out[i].cls != AccessClass::not_classified &&
            fetch_out[i].cls != AccessClass::always_miss) {
          continue;
        }
        if (line_persists(i_counts, iconfig_, recipe.fetch[i].line)) {
          const int current = fetch_out[i].persistent_loop;
          if (current < 0 || loops_.loop(current).depth > loop.depth) {
            fetch_out[i].persistent_loop = loop.id;
          }
        }
      }
      const std::span<DataClass> data_out{
          data_rows_.data() + data_begin_[static_cast<std::size_t>(node_id)],
          data_count_[static_cast<std::size_t>(node_id)]};
      const auto& accesses = values_.accesses(node_id);
      for (std::size_t i = 0; i < data_out.size() && i < accesses.size(); ++i) {
        if (!d_precise) break;
        DataClass& dc = data_out[i];
        if (dc.is_store || dc.cls == AccessClass::always_hit ||
            dc.cls == AccessClass::uncached) {
          continue;
        }
        const std::span<const std::uint32_t> lines = lines_for(node_id, i);
        if (lines.empty()) continue;
        const bool all_persist = std::all_of(lines.begin(), lines.end(), [&](std::uint32_t l) {
          return line_persists(d_counts, dconfig_, l);
        });
        if (all_persist) {
          const int current = dc.persistent_loop;
          if (current < 0 || loops_.loop(current).depth > loop.depth) {
            dc.persistent_loop = loop.id;
          }
        }
      }
    }
  }
}

CacheAnalysis::Start CacheAnalysis::run(const CacheAnalysis* prev,
                                        const std::vector<char>* instance_clean,
                                        const std::vector<char>* node_clean) {
  // Both the candidate-line tables and the per-node transfer recipes
  // the fixpoint replays (once per decode round, fanned out over the
  // pool into dense per-node slots; clean nodes adopt prev's).
  const bool adopting = prev != nullptr && node_clean != nullptr &&
                        node_clean->size() == sg_.nodes().size();
  transfers_->build_cache_recipes(memmap_, iconfig_, dconfig_, pool_,
                                  adopting ? prev->transfers_ : nullptr,
                                  adopting ? node_clean : nullptr);
  Start start = Start::cold;
  if (schedule_ == Schedule::priority) {
    const bool try_warm =
        prev != nullptr && instance_clean != nullptr && !prev->degraded_ &&
        prev->schedule_ == Schedule::priority &&
        instance_clean->size() == sg_.instances().size() &&
        prev->in_i_.size() == in_i_.size() && warm_guard_ok(*instance_clean);
    if (try_warm) {
      start = fixpoint_instance_rounds(prev, instance_clean) ? Start::warm : Start::fallback;
      if (start == Start::fallback) {
        // Divergence: every state (frozen or partially iterated) is
        // suspect — discard wholesale and rerun the cold fixpoint, so
        // the published classifications are exactly the cold result.
        const std::size_t n = sg_.nodes().size();
        in_i_.assign(n, CachePair{AbsCache::cold(iconfig_, true),
                                  AbsCache::cold(iconfig_, false)});
        in_d_.assign(n, CachePair{AbsCache::cold(dconfig_, true),
                                  AbsCache::cold(dconfig_, false)});
        has_state_.assign(n, 0);
        degraded_ = false;
        fixpoint_instance_rounds(nullptr, nullptr);
      }
    } else {
      fixpoint_instance_rounds(nullptr, nullptr);
    }
  } else {
    fixpoint_round_robin();
  }
  // Rows are adopted only on top of a committed warm start: its clean
  // in-states are then exactly prev's converged ones.
  const CacheAnalysis* rows_from = adopting && start == Start::warm ? prev : nullptr;
  if (rows_from != nullptr) rows_adopted_.assign(sg_.nodes().size(), 0);
  // Record classifications with the final states. Per-node work is
  // independent (reads the converged in-states, writes only this
  // node's classification rows), so it fans out across the pool. The
  // production schedule records through the lazy per-set replay (no
  // whole-cache clone per node); the round-robin reference keeps the
  // classic transfer, so the rounds-vs-reference differential test
  // cross-checks the two recording implementations too.
  const auto record_node = [&](std::size_t id) {
    const cfg::SgNode& node = sg_.nodes()[id];
    if (rows_from != nullptr && (*node_clean)[id] != 0 &&
        transfers_->recipe_adopted(node.id) && has_state_[id] == rows_from->has_state_[id] &&
        in_i_[id].same_as(rows_from->in_i_[id]) && in_d_[id].same_as(rows_from->in_d_[id])) {
      // Same instructions and accesses: the slices have equal sizes.
      const std::span<const FetchClass> fetch = rows_from->fetch_classes(node.id);
      std::copy(fetch.begin(), fetch.end(), fetch_row(id).begin());
      const std::span<const DataClass> data = rows_from->data_classes(node.id);
      std::copy(data.begin(), data.end(), data_rows_.begin() + data_begin_[id]);
      data_count_[id] = static_cast<std::uint32_t>(data.size());
      rows_adopted_[id] = 1;
      return;
    }
    if (degraded_) {
      // A truncated fixpoint can leave a *reachable* node without a
      // propagated state (has_state_ == 0), so the sweep must not trust
      // has_state_ at all: every node gets recipe-only conservative
      // rows, keeping the classification tables index-aligned for the
      // pipeline phase.
      record_node_conservative(node.id);
      return;
    }
    if (!has_state_[id]) {
      const std::span<FetchClass> fetch_out = fetch_row(id);
      std::fill(fetch_out.begin(), fetch_out.end(), FetchClass{});
      data_count_[id] = 0;
      return;
    }
    if (schedule_ == Schedule::priority) {
      record_node_lazy(node.id);
      return;
    }
    CachePair icache = in_i_[id];
    CachePair dcache = in_d_[id];
    transfer(node.id, icache, dcache, true);
  };
  parallel_for(pool_, sg_.nodes().size(), record_node);
  persistence(rows_from);
  return start;
}

CacheAnalysis::Stats CacheAnalysis::stats() const {
  Stats s;
  for (std::size_t n = 0; n < data_count_.size(); ++n) {
    if (!values_.node_reachable(static_cast<int>(n))) continue;
    for (const FetchClass& fc : fetch_classes(static_cast<int>(n))) {
      switch (fc.cls) {
      case AccessClass::always_hit: ++s.fetch_hit; break;
      case AccessClass::always_miss: ++s.fetch_miss; break;
      case AccessClass::not_classified: ++s.fetch_nc; break;
      case AccessClass::uncached: ++s.fetch_uncached; break;
      }
      if (fc.persistent_loop >= 0) ++s.persistent;
    }
    for (const DataClass& dc : data_classes(static_cast<int>(n))) {
      switch (dc.cls) {
      case AccessClass::always_hit: ++s.data_hit; break;
      case AccessClass::always_miss: ++s.data_miss; break;
      case AccessClass::not_classified: ++s.data_nc; break;
      case AccessClass::uncached: ++s.data_uncached; break;
      }
      if (dc.persistent_loop >= 0) ++s.persistent;
    }
  }
  return s;
}

} // namespace wcet::analysis
