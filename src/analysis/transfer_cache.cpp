#include "analysis/transfer_cache.hpp"

#include <algorithm>

#include "analysis/cache_analysis.hpp" // for_each_candidate_set
#include "support/diag.hpp"
#include "support/thread_pool.hpp"

namespace wcet::analysis {

TransferCache::TransferCache(const cfg::Supergraph& sg) : sg_(sg) {
  out_.resize(sg.nodes().size());
  edge_out_.resize(sg.edges().size());
}

void TransferCache::attach(const ValueAnalysis& values) {
  if (values_ == &values) return;
  // New producer: every memo derived from the previous analysis'
  // results is stale. (The out_ slots are overwritten by the new run's
  // recording sweep; the lazy and once-built memos must be dropped
  // explicitly.)
  values_ = &values;
  for (auto& slot : edge_out_) slot.reset();
  lines_ready_ = false;
  recipes_ready_ = false;
}

const AbsState& TransferCache::edge_state(int edge) const {
  WCET_CHECK(values_ != nullptr, "TransferCache queried before attach()");
  auto& slot = edge_out_[static_cast<std::size_t>(edge)];
  if (!slot) {
    const cfg::SgEdge& e = sg_.edge(edge);
    AbsState along = values_->edge_feasible(edge)
                         ? values_->refine_along_edge(edge, out_state(e.from))
                         : AbsState{};
    slot = std::make_unique<AbsState>(std::move(along));
  }
  return *slot;
}

Interval TransferCache::mem_word_along_edge(int edge, std::uint32_t addr) const {
  const AbsState& out = edge_state(edge);
  if (out.bottom) return Interval::bottom();
  const auto it = out.mem->find(addr);
  if (it != out.mem->end()) return it->second;
  return values_->implicit_mem_word(out, addr);
}

std::vector<std::uint32_t> TransferCache::candidate_lines(const Interval& addr, int size,
                                                          const mem::CacheConfig& config) {
  std::vector<std::uint32_t> lines;
  if (addr.is_bottom()) return lines;
  // Clamp the end to the word range: a wrap here once made a TOP address
  // interval look like a single-line access (unsound).
  const std::int64_t end =
      std::min<std::int64_t>(addr.umax() + size - 1, Interval::word_max);
  const std::uint32_t first = config.line_of(static_cast<std::uint32_t>(addr.umin()));
  const std::uint32_t last = config.line_of(static_cast<std::uint32_t>(end));
  if (last - first + 1 > 8) return {}; // unknown: too many candidates
  for (std::uint32_t l = first; l <= last; ++l) lines.push_back(l);
  return lines;
}

void TransferCache::build_data_lines(const mem::CacheConfig& config, ThreadPool* pool) {
  WCET_CHECK(values_ != nullptr, "TransferCache::build_data_lines before attach()");
  if (lines_ready_) {
    // The memo is only valid for one geometry: silently serving lines
    // computed under a different line size would misclassify accesses.
    WCET_CHECK(lines_config_.enabled == config.enabled &&
                   lines_config_.sets == config.sets && lines_config_.ways == config.ways &&
                   lines_config_.line_bytes == config.line_bytes,
               "TransferCache line tables rebuilt under a different cache geometry");
    return;
  }
  lines_config_ = config;
  lines_.resize(sg_.nodes().size());
  const auto build_node = [&](std::size_t n) {
    const auto& accesses = values_->accesses(static_cast<int>(n));
    auto& row = lines_[n];
    row.clear();
    row.reserve(accesses.size());
    for (const AccessInfo& access : accesses) {
      row.push_back(candidate_lines(access.addr, access.size, config));
    }
  };
  parallel_for(pool, lines_.size(), build_node);
  lines_ready_ = true;
}

void TransferCache::build_cache_recipes(const mem::MemoryMap& memmap,
                                        const mem::CacheConfig& icache,
                                        const mem::CacheConfig& dcache, ThreadPool* pool) {
  WCET_CHECK(values_ != nullptr, "TransferCache::build_cache_recipes before attach()");
  build_data_lines(dcache, pool);
  if (recipes_ready_) {
    // Recipes bake in region cacheability verdicts too, so the memory
    // map is part of the geometry the memo is keyed on.
    WCET_CHECK(recipes_iconfig_.enabled == icache.enabled &&
                   recipes_iconfig_.line_bytes == icache.line_bytes &&
                   recipes_memmap_ == &memmap,
               "TransferCache recipes rebuilt under a different i-cache geometry "
               "or memory map");
    return;
  }
  recipes_iconfig_ = icache;
  recipes_memmap_ = &memmap;
  recipes_.resize(sg_.nodes().size());
  const auto build_node = [&](std::size_t ni) {
    const int node = static_cast<int>(ni);
    const cfg::SgNode& n = sg_.node(node);
    const auto& accesses = values_->accesses(node);
    CacheRecipe& recipe = recipes_[ni];
    recipe.fetch.assign(n.block->insts.size(), CacheRecipe::Fetch{});
    recipe.data.clear();
    recipe.fetch_apply.clear();

    std::size_t access_index = 0;
    std::uint32_t pc = n.block->begin;
    std::uint32_t prev_line = ~0u;
    bool have_prev = false;
    for (std::size_t i = 0; i < n.block->insts.size(); ++i, pc += 4) {
      const isa::Inst& inst = n.block->insts[i];
      // --- Instruction fetch.
      CacheRecipe::Fetch& fetch = recipe.fetch[i];
      fetch.line = icache.line_of(pc); // stored for every kind: the
                                       // persistence pass probes lines
                                       // of uncached entries too
      if (!memmap.region_for(pc).cacheable || !icache.enabled) {
        fetch.kind = CacheRecipe::FetchKind::uncached;
      } else {
        if (have_prev && fetch.line == prev_line) {
          fetch.kind = CacheRecipe::FetchKind::same_line;
        } else {
          fetch.kind = CacheRecipe::FetchKind::line;
          recipe.fetch_apply.push_back(fetch.line);
        }
        prev_line = fetch.line;
        have_prev = true;
      }

      // --- Data access.
      if (!inst.is_mem_access()) continue;
      WCET_CHECK(access_index < accesses.size() || values_->state_in(node).bottom,
                 "access list out of sync with instructions");
      if (access_index >= accesses.size()) continue;
      const AccessInfo& access = accesses[access_index];
      const std::vector<std::uint32_t>& lines = lines_[ni][access_index];
      CacheRecipe::Data data;
      data.is_store = access.is_store;
      data.pc = access.pc;
      data.access_index = static_cast<std::uint32_t>(access_index);
      ++access_index;
      if (access.is_store || access.addr.is_bottom()) {
        // Write-through no-write-allocate store, or unreachable.
        data.kind = CacheRecipe::DataKind::bypass;
      } else if (!memmap.all_cacheable(access.addr) || !dcache.enabled) {
        // If part of an imprecise range is cacheable, the access may
        // still disturb the cache.
        data.kind = dcache.enabled && lines.empty() ? CacheRecipe::DataKind::disturb
                                                    : CacheRecipe::DataKind::bypass;
      } else {
        data.kind = CacheRecipe::DataKind::cached;
      }
      recipe.data.push_back(data);
    }

    // --- Per-set access programs (overlay replay; see the header).
    recipe.fetch_groups.clear();
    recipe.data_groups.clear();
    // Reused across nodes (one slot table per worker; the builder is a
    // pure function of the node's recipe, so sharing buffers is safe).
    static thread_local std::vector<int> slot;
    {
      slot.assign(icache.sets, -1); // set -> fetch_groups index
      for (const std::uint32_t line : recipe.fetch_apply) {
        const unsigned s = icache.set_index(line * icache.line_bytes);
        if (slot[s] < 0) {
          slot[s] = static_cast<int>(recipe.fetch_groups.size());
          recipe.fetch_groups.push_back({s, {}});
        }
        recipe.fetch_groups[static_cast<std::size_t>(slot[s])].lines.push_back(line);
      }
      std::sort(recipe.fetch_groups.begin(), recipe.fetch_groups.end(),
                [](const auto& a, const auto& b) { return a.set < b.set; });
    }
    {
      slot.assign(dcache.sets, -1); // set -> data_groups index
      const auto group_of = [&](unsigned s) -> CacheRecipe::DataGroup& {
        if (slot[s] < 0) {
          slot[s] = static_cast<int>(recipe.data_groups.size());
          recipe.data_groups.push_back({s, false, {}});
        }
        return recipe.data_groups[static_cast<std::size_t>(slot[s])];
      };
      for (const CacheRecipe::Data& d : recipe.data) {
        if (d.kind == CacheRecipe::DataKind::bypass) continue;
        const std::vector<std::uint32_t>& lines =
            lines_[ni][static_cast<std::size_t>(d.access_index)];
        if (d.kind == CacheRecipe::DataKind::disturb || lines.empty()) {
          // Unknown line: the must side ages every set, so every set's
          // program gets an age_all op at this position.
          for (unsigned s = 0; s < dcache.sets; ++s) {
            CacheRecipe::DataSetOp op;
            op.age_all = true;
            group_of(s).ops.push_back(std::move(op));
          }
          continue;
        }
        // access_one_of, pre-split per affected set (the shared
        // splitting rule — see for_each_candidate_set).
        static thread_local std::vector<unsigned> affected;
        for_each_candidate_set(dcache, lines, affected, [&](unsigned s, bool outside) {
          CacheRecipe::DataSetOp op;
          op.outside = outside;
          for (const std::uint32_t line : lines) {
            if (dcache.set_index(line * dcache.line_bytes) == s) {
              op.lines.push_back(line);
            }
          }
          CacheRecipe::DataGroup& group = group_of(s);
          group.any_one_of = true;
          group.ops.push_back(std::move(op));
        });
      }
      std::sort(recipe.data_groups.begin(), recipe.data_groups.end(),
                [](const auto& a, const auto& b) { return a.set < b.set; });
    }
  };
  parallel_for(pool, recipes_.size(), build_node);
  recipes_ready_ = true;
}

} // namespace wcet::analysis
