#include "analysis/transfer_cache.hpp"

#include <algorithm>

#include "analysis/cache_analysis.hpp" // for_each_candidate_set
#include "support/diag.hpp"
#include "support/thread_pool.hpp"

namespace wcet::analysis {

namespace {

// Candidate lines of an access: the `count` consecutive lines from
// `first`; a count of 0 means "unknown line".
struct LineRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

LineRange candidate_lines(const Interval& addr, int size, const mem::CacheConfig& config) {
  if (addr.is_bottom()) return {};
  // Clamp the end to the word range: a wrap here once made a TOP address
  // interval look like a single-line access (unsound).
  const std::int64_t end =
      std::min<std::int64_t>(addr.umax() + size - 1, Interval::word_max);
  const std::uint32_t first = config.line_of(static_cast<std::uint32_t>(addr.umin()));
  const std::uint32_t last = config.line_of(static_cast<std::uint32_t>(end));
  if (last - first + 1 > 8) return {}; // unknown: too many candidates
  return {first, last - first + 1};
}

} // namespace

TransferCache::TransferCache(const cfg::Supergraph& sg) : sg_(sg) {
  out_.resize(sg.nodes().size());
}

void TransferCache::attach(const ValueAnalysis& values) {
  if (values_ == &values) return;
  // New producer: every memo derived from the previous analysis'
  // results is stale. (The out_ slots are overwritten by the new run's
  // recording sweep; the lazy and once-built memos must be dropped
  // explicitly.)
  values_ = &values;
  edge_out_.assign(sg_.edges().size(), AbsState{});
  edge_ready_.assign(sg_.edges().size(), 0);
  lines_ready_ = false;
  recipes_ready_ = false;
}

const AbsState& TransferCache::edge_state(int edge) const {
  WCET_CHECK(values_ != nullptr, "TransferCache queried before attach()");
  const auto e = static_cast<std::size_t>(edge);
  if (edge_ready_[e] == 0) {
    if (values_->edge_feasible(edge)) {
      edge_out_[e] = values_->refine_along_edge(edge, out_state(sg_.edge(edge).from));
    }
    edge_ready_[e] = 1;
  }
  return edge_out_[e];
}

Interval TransferCache::mem_word_along_edge(int edge, std::uint32_t addr) const {
  const AbsState& out = edge_state(edge);
  if (out.bottom) return Interval::bottom();
  const auto it = out.mem->find(addr);
  if (it != out.mem->end()) return it->second;
  return values_->implicit_mem_word(out, addr);
}


void TransferCache::build_data_lines(const mem::CacheConfig& config) {
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
  // Sizing pass (offsets), then the fill; both are a few arithmetic
  // operations per access, so neither is worth a pool dispatch.
  const std::size_t num_nodes = sg_.nodes().size();
  access_begin_.resize(num_nodes + 1);
  std::uint32_t accesses = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    access_begin_[n] = accesses;
    accesses += static_cast<std::uint32_t>(values_->accesses(static_cast<int>(n)).size());
  }
  access_begin_[num_nodes] = accesses;
  line_begin_.resize(static_cast<std::size_t>(accesses) + 1);
  std::uint32_t lines = 0;
  std::size_t a = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    for (const AccessInfo& access : values_->accesses(static_cast<int>(n))) {
      line_begin_[a++] = lines;
      lines += candidate_lines(access.addr, access.size, config).count;
    }
  }
  line_begin_[a] = lines;
  line_payload_.resize(lines);
  std::uint32_t* out = line_payload_.data();
  for (std::size_t n = 0; n < num_nodes; ++n) {
    for (const AccessInfo& access : values_->accesses(static_cast<int>(n))) {
      const LineRange range = candidate_lines(access.addr, access.size, config);
      for (std::uint32_t l = 0; l < range.count; ++l) *out++ = range.first + l;
    }
  }
  lines_ready_ = true;
}

TransferCache::LineTable TransferCache::data_lines(int node) const {
  const auto n = static_cast<std::size_t>(node);
  LineTable table;
  table.begin_ = line_begin_.data() + access_begin_[n];
  table.payload_ = line_payload_.data();
  table.count_ = access_begin_[n + 1] - access_begin_[n];
  return table;
}

namespace {

bool same_geometry(const mem::CacheConfig& a, const mem::CacheConfig& b) {
  return a.enabled == b.enabled && a.sets == b.sets && a.ways == b.ways &&
         a.line_bytes == b.line_bytes;
}

} // namespace

void TransferCache::build_cache_recipes(const mem::MemoryMap& memmap,
                                        const mem::CacheConfig& icache,
                                        const mem::CacheConfig& dcache, ThreadPool* pool,
                                        const TransferCache* prev,
                                        const std::vector<char>* node_clean) {
  WCET_CHECK(values_ != nullptr, "TransferCache::build_cache_recipes before attach()");
  build_data_lines(dcache);
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

  // Sizing pass: each node's slice of every table. A data access that
  // may reach the d-cache adds at most one op per candidate line (the
  // op of the line's set), or one age_all op per set when its line is
  // unknown; a node has at most one group per set, and no group
  // without an op.
  const std::size_t num_nodes = sg_.nodes().size();
  inst_begin_.resize(num_nodes + 1);
  op_begin_.resize(num_nodes + 1);
  group_begin_.resize(num_nodes + 1);
  std::uint32_t insts = 0;
  std::uint32_t ops = 0;
  std::uint32_t groups = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    inst_begin_[n] = insts;
    op_begin_[n] = ops;
    group_begin_[n] = groups;
    insts += static_cast<std::uint32_t>(sg_.nodes()[n].block->insts.size());
    const auto& accesses = values_->accesses(static_cast<int>(n));
    std::uint32_t node_ops = 0;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      if (!dcache.enabled || accesses[i].is_store || accesses[i].addr.is_bottom()) continue;
      const std::size_t a = access_begin_[n] + i;
      const std::uint32_t lines = line_begin_[a + 1] - line_begin_[a];
      node_ops += lines == 0 ? dcache.sets : lines;
    }
    ops += node_ops;
    groups += std::min(dcache.sets, node_ops);
  }
  inst_begin_[num_nodes] = insts;
  op_begin_[num_nodes] = ops;
  group_begin_[num_nodes] = groups;

  fetch_.assign(insts, CacheRecipe::Fetch{});
  fetch_apply_.resize(insts);
  fetch_group_lines_.resize(insts);
  fetch_groups_.resize(insts);
  data_.resize(access_begin_[num_nodes]);
  op_lines_.resize(line_payload_.size());
  ops_.resize(ops);
  data_groups_.resize(groups);
  recipes_.assign(num_nodes, CacheRecipe{});

  // Adoption needs the previous tables of the same node count, built
  // under equal geometries and an equal memory map.
  const bool adopting =
      prev != nullptr && node_clean != nullptr && prev->recipes_ready_ &&
      prev->recipes_.size() == num_nodes && node_clean->size() == num_nodes &&
      same_geometry(prev->recipes_iconfig_, icache) &&
      same_geometry(prev->lines_config_, dcache) && prev->recipes_memmap_ != nullptr &&
      *prev->recipes_memmap_ == memmap;
  recipe_adopted_.assign(adopting ? num_nodes : 0, 0);

  // Copies node ni's recipe from prev: the node's slices have the same
  // sizes in both tables (same instructions, same accesses, same line
  // tables), and the spans inside the groups are rebased onto ours.
  const auto adopt_node = [&](std::size_t ni) {
    const CacheRecipe& old = prev->recipes_[ni];
    CacheRecipe& recipe = recipes_[ni];
    CacheRecipe::Fetch* const fetch = fetch_.data() + inst_begin_[ni];
    std::uint32_t* const apply = fetch_apply_.data() + inst_begin_[ni];
    std::uint32_t* const group_lines = fetch_group_lines_.data() + inst_begin_[ni];
    CacheRecipe::FetchGroup* const fetch_groups = fetch_groups_.data() + inst_begin_[ni];
    CacheRecipe::Data* const data = data_.data() + access_begin_[ni];
    std::uint32_t* const op_lines = op_lines_.data() + line_begin_[access_begin_[ni]];
    CacheRecipe::DataSetOp* const ops = ops_.data() + op_begin_[ni];
    CacheRecipe::DataGroup* const data_groups = data_groups_.data() + group_begin_[ni];
    const std::uint32_t* const old_group_lines =
        prev->fetch_group_lines_.data() + prev->inst_begin_[ni];
    const std::uint32_t* const old_op_lines =
        prev->op_lines_.data() + prev->line_begin_[prev->access_begin_[ni]];
    const CacheRecipe::DataSetOp* const old_ops = prev->ops_.data() + prev->op_begin_[ni];

    std::copy_n(old.fetch.data(), old.fetch.size(), fetch);
    std::copy_n(old.fetch_apply.data(), old.fetch_apply.size(), apply);
    std::copy_n(old_group_lines, old.fetch_apply.size(), group_lines);
    for (std::size_t g = 0; g < old.fetch_groups.size(); ++g) {
      const CacheRecipe::FetchGroup& group = old.fetch_groups[g];
      fetch_groups[g] = {group.set,
                         {group_lines + (group.lines.data() - old_group_lines),
                          group.lines.size()}};
    }
    std::copy_n(old.data.data(), old.data.size(), data);
    const std::size_t num_lines = line_begin_[access_begin_[ni + 1]] -
                                  line_begin_[access_begin_[ni]];
    std::copy_n(old_op_lines, num_lines, op_lines);
    std::size_t num_ops = 0;
    for (std::size_t g = 0; g < old.data_groups.size(); ++g) {
      const CacheRecipe::DataGroup& group = old.data_groups[g];
      for (const CacheRecipe::DataSetOp& op : group.ops) {
        ops[num_ops++] = {op.age_all, op.outside,
                          op.lines.empty()
                              ? std::span<const std::uint32_t>{}
                              : std::span<const std::uint32_t>{
                                    op_lines + (op.lines.data() - old_op_lines),
                                    op.lines.size()}};
      }
      data_groups[g] = {group.set, group.any_one_of,
                        {ops + (group.ops.data() - old_ops), group.ops.size()}};
    }
    recipe.fetch = {fetch, old.fetch.size()};
    recipe.data = {data, old.data.size()};
    recipe.fetch_apply = {apply, old.fetch_apply.size()};
    recipe.fetch_groups = {fetch_groups, old.fetch_groups.size()};
    recipe.data_groups = {data_groups, old.data_groups.size()};
    recipe_adopted_[ni] = 1;
  };

  const auto build_node = [&](std::size_t ni) {
    if (adopting && (*node_clean)[ni] != 0) {
      adopt_node(ni);
      return;
    }
    const int node = static_cast<int>(ni);
    const cfg::SgNode& n = sg_.node(node);
    const auto& accesses = values_->accesses(node);
    const LineTable lines_of = data_lines(node);
    CacheRecipe::Fetch* const fetch = fetch_.data() + inst_begin_[ni];
    std::uint32_t* const apply = fetch_apply_.data() + inst_begin_[ni];
    CacheRecipe::Data* const data = data_.data() + access_begin_[ni];
    std::size_t num_apply = 0;
    std::size_t num_data = 0;

    std::size_t access_index = 0;
    std::uint32_t pc = n.block->begin;
    std::uint32_t prev_line = ~0u;
    bool have_prev = false;
    for (std::size_t i = 0; i < n.block->insts.size(); ++i, pc += 4) {
      const isa::Inst& inst = n.block->insts[i];
      // --- Instruction fetch.
      CacheRecipe::Fetch& f = fetch[i];
      f.line = icache.line_of(pc); // stored for every kind: the
                                   // persistence pass probes lines
                                   // of uncached entries too
      if (!memmap.region_for(pc).cacheable || !icache.enabled) {
        f.kind = CacheRecipe::FetchKind::uncached;
      } else {
        if (have_prev && f.line == prev_line) {
          f.kind = CacheRecipe::FetchKind::same_line;
        } else {
          f.kind = CacheRecipe::FetchKind::line;
          apply[num_apply++] = f.line;
        }
        prev_line = f.line;
        have_prev = true;
      }

      // --- Data access.
      if (!inst.is_mem_access()) continue;
      WCET_CHECK(access_index < accesses.size() || values_->state_in(node).bottom,
                 "access list out of sync with instructions");
      if (access_index >= accesses.size()) continue;
      const AccessInfo& access = accesses[access_index];
      CacheRecipe::Data& d = data[num_data++];
      d.is_store = access.is_store;
      d.pc = access.pc;
      d.access_index = static_cast<std::uint32_t>(access_index);
      if (access.is_store || access.addr.is_bottom()) {
        // Write-through no-write-allocate store, or unreachable.
        d.kind = CacheRecipe::DataKind::bypass;
      } else if (!memmap.all_cacheable(access.addr) || !dcache.enabled) {
        // If part of an imprecise range is cacheable, the access may
        // still disturb the cache.
        d.kind = dcache.enabled && lines_of[access_index].empty()
                     ? CacheRecipe::DataKind::disturb
                     : CacheRecipe::DataKind::bypass;
      } else {
        d.kind = CacheRecipe::DataKind::cached;
      }
      ++access_index;
    }

    // --- Per-set access programs (overlay replay; see the header),
    // emitted set by set in ascending order. Scratch is reused across
    // nodes (one set per worker; the builder is a pure function of the
    // node's recipe, so sharing buffers is safe).
    static thread_local std::vector<unsigned> sets;
    static thread_local std::vector<unsigned char> mark;
    static thread_local std::vector<unsigned> affected;
    const auto set_of = [](const mem::CacheConfig& config, std::uint32_t line) {
      return config.set_index(line * config.line_bytes);
    };

    CacheRecipe::FetchGroup* const fetch_groups = fetch_groups_.data() + inst_begin_[ni];
    std::uint32_t* const group_lines = fetch_group_lines_.data() + inst_begin_[ni];
    std::size_t num_fetch_groups = 0;
    {
      sets.clear();
      mark.assign(icache.sets, 0);
      for (std::size_t k = 0; k < num_apply; ++k) {
        const unsigned s = set_of(icache, apply[k]);
        if (mark[s] == 0) {
          mark[s] = 1;
          sets.push_back(s);
        }
      }
      std::sort(sets.begin(), sets.end());
      std::size_t used = 0;
      for (const unsigned s : sets) {
        const std::size_t first = used;
        for (std::size_t k = 0; k < num_apply; ++k) {
          if (set_of(icache, apply[k]) == s) group_lines[used++] = apply[k];
        }
        fetch_groups[num_fetch_groups++] = {s, {group_lines + first, used - first}};
      }
    }

    CacheRecipe::DataGroup* const data_groups = data_groups_.data() + group_begin_[ni];
    CacheRecipe::DataSetOp* const ops = ops_.data() + op_begin_[ni];
    std::uint32_t* const op_lines = op_lines_.data() + line_begin_[access_begin_[ni]];
    std::size_t num_data_groups = 0;
    std::size_t num_ops = 0;
    {
      // mark[s]: some access_one_of op lands on set s. An unknown-line
      // access ages every set, so then every set has a program, with an
      // age_all op at that access' position.
      const auto unknown_line = [&](const CacheRecipe::Data& d) {
        return d.kind == CacheRecipe::DataKind::disturb || lines_of[d.access_index].empty();
      };
      sets.clear();
      mark.assign(dcache.sets, 0);
      bool ages_all_sets = false;
      for (std::size_t k = 0; k < num_data; ++k) {
        const CacheRecipe::Data& d = data[k];
        if (d.kind == CacheRecipe::DataKind::bypass) continue;
        if (unknown_line(d)) {
          ages_all_sets = true;
          continue;
        }
        for (const std::uint32_t line : lines_of[d.access_index]) {
          const unsigned s = set_of(dcache, line);
          if (mark[s] == 0) {
            mark[s] = 1;
            sets.push_back(s);
          }
        }
      }
      if (ages_all_sets) {
        sets.resize(dcache.sets);
        for (unsigned s = 0; s < dcache.sets; ++s) sets[s] = s;
      } else {
        std::sort(sets.begin(), sets.end());
      }
      std::size_t used = 0;
      for (const unsigned s : sets) {
        const std::size_t first_op = num_ops;
        for (std::size_t k = 0; k < num_data; ++k) {
          const CacheRecipe::Data& d = data[k];
          if (d.kind == CacheRecipe::DataKind::bypass) continue;
          if (unknown_line(d)) {
            ops[num_ops++] = {true, false, {}};
            continue;
          }
          // access_one_of restricted to `s` (the shared splitting rule,
          // see for_each_candidate_set): the candidates mapping here,
          // and whether some candidate maps elsewhere.
          const std::span<const std::uint32_t> lines = lines_of[d.access_index];
          for_each_candidate_set(dcache, lines, affected, [&](unsigned as, bool outside) {
            if (as != s) return;
            const std::size_t first_line = used;
            for (const std::uint32_t line : lines) {
              if (set_of(dcache, line) == s) op_lines[used++] = line;
            }
            ops[num_ops++] = {false, outside, {op_lines + first_line, used - first_line}};
          });
        }
        data_groups[num_data_groups++] = {s, mark[s] != 0,
                                          {ops + first_op, num_ops - first_op}};
      }
    }
    WCET_CHECK(num_ops <= op_begin_[ni + 1] - op_begin_[ni] &&
                   num_data_groups <= group_begin_[ni + 1] - group_begin_[ni],
               "cache recipe outgrew its sized slice");

    CacheRecipe& recipe = recipes_[ni];
    recipe.fetch = {fetch, n.block->insts.size()};
    recipe.data = {data, num_data};
    recipe.fetch_apply = {apply, num_apply};
    recipe.fetch_groups = {fetch_groups, num_fetch_groups};
    recipe.data_groups = {data_groups, num_data_groups};
  };
  parallel_for(pool, num_nodes, build_node);
  recipes_ready_ = true;
}

} // namespace wcet::analysis
