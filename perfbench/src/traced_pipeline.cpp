#include "traced_pipeline.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/ipet.hpp"
#include "analysis/loop_bounds.hpp"
#include "analysis/pipeline_analysis.hpp"
#include "analysis/transfer_cache.hpp"
#include "analysis/value_analysis.hpp"
#include "cfg/domloop.hpp"
#include "cfg/program.hpp"
#include "cfg/supergraph.hpp"
#include "support/budget.hpp"
#include "support/cow.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace wcet;

bool block_covers(const cfg::Supergraph& sg, const std::vector<int>& nodes, std::uint32_t addr) {
  for (const int node_id : nodes) {
    const cfg::CfgBlock& block = *sg.node(node_id).block;
    if (addr >= block.begin && addr < block.end) return true;
  }
  return false;
}

// LoopBoundsPass: the analyzed bound, tightened by the annotation on the
// innermost loop covering the annotated address (same mode filter).
std::map<int, std::uint64_t> merge_loop_bounds(
    const cfg::Supergraph& sg, const cfg::LoopForest& forest,
    const std::vector<analysis::LoopBoundResult>& results, const annot::AnnotationDb& db,
    const AnalysisOptions& options) {
  std::map<int, std::uint64_t> merged;
  for (const cfg::Loop& loop : forest.loops()) {
    std::optional<std::uint64_t> analyzed = results[static_cast<std::size_t>(loop.id)].bound;
    std::optional<std::uint64_t> annotated;
    if (options.use_annotations) {
      for (const annot::LoopBoundFact& fact : db.loop_bounds) {
        if (!fact.mode.empty() && fact.mode != options.mode) continue;
        if (!block_covers(sg, loop.nodes, fact.addr)) continue;
        bool child_covers = false;
        for (const int child : loop.children) {
          if (block_covers(sg, forest.loop(child).nodes, fact.addr)) {
            child_covers = true;
            break;
          }
        }
        if (child_covers) continue;
        annotated = annotated ? std::min(*annotated, fact.max_iterations) : fact.max_iterations;
      }
    }
    std::optional<std::uint64_t> used = analyzed;
    if (analyzed && annotated) {
      used = std::min(*analyzed, *annotated);
    } else if (!analyzed) {
      used = annotated;
    }
    if (used) merged[loop.id] = *used;
  }
  return merged;
}

// ipet_options_for in wcet/pipeline.cpp.
analysis::IpetOptions ipet_options(const std::map<int, std::uint64_t>& merged,
                                   const annot::AnnotationDb& db,
                                   const AnalysisOptions& options,
                                   const AnalysisGovernor* governor) {
  analysis::IpetOptions out;
  out.loop_bounds = merged;
  out.decomposition = options.decomposition;
  out.governor = governor;
  if (options.use_annotations) {
    for (const annot::FlowCapFact& cap : db.flow_caps) {
      if (cap.mode.empty() || cap.mode == options.mode) out.flow_caps.push_back(cap);
    }
    out.flow_ratios = db.flow_ratios;
    out.infeasible_pairs = db.infeasible_pairs;
    out.excluded_addrs = db.excluded_addrs(options.mode);
  }
  return out;
}

// Everything below the root span; its locals die inside the root span,
// so teardown counts as request time, as it does in Analyzer::analyze.
TracedOutcome run_layers(const isa::Image& image, const mem::HwConfig& hw,
                         const std::string& annotations, const AnalysisOptions& options,
                         Tracer& tracer, int request) {
  Tracer* t = &tracer;
  std::optional<Analyzer> analyzer;
  {
    Span span(t, "wcet.construct", "wcet", request);
    analyzer.emplace(image, hw, annotations);
  }
  const annot::AnnotationDb& db = analyzer->annotations();
  const mem::HwConfig& ahw = analyzer->hw();
  const std::uint32_t entry = image.entry();

  cfg::ResolutionHints hints;
  cfg::Supergraph::Options sg_options;
  if (options.use_annotations) {
    hints.indirect_targets = db.indirect_targets;
    sg_options.recursion_depths = db.recursion_depths;
  }
  ThreadPool pool(options.threads > 1 ? static_cast<unsigned>(options.threads) : 1);
  ThreadPool* pool_ptr = pool.workers() > 1 ? &pool : nullptr;
  AnalysisGovernor governor(options.budget);
  pool.set_governor(&governor);

  std::unique_ptr<cfg::Program> program;
  std::unique_ptr<cfg::Supergraph> sg;
  std::unique_ptr<cfg::LoopForest> forest;
  std::unique_ptr<cfg::Dominators> dominators;
  std::vector<int> schedule;
  std::unique_ptr<analysis::TransferCache> transfers;
  std::unique_ptr<analysis::ValueAnalysis> values;
  bool decode_issues = false;

  // Front half with the Figure-1 feedback edge (Analyzer::analyze_entry).
  for (int round = 0; round < std::max(1, options.max_decode_rounds); ++round) {
    {
      Span span(t, "cfg.reconstruct", "cfg", request);
      program = std::make_unique<cfg::Program>(cfg::Program::reconstruct(image, entry, hints));
    }
    {
      Span span(t, "cfg.expand", "cfg", request);
      sg = std::make_unique<cfg::Supergraph>(cfg::Supergraph::expand(*program, sg_options));
    }
    {
      Span span(t, "cfg.loop_forest", "cfg", request);
      forest = std::make_unique<cfg::LoopForest>(*sg);
    }
    {
      Span span(t, "cfg.dominators", "cfg", request);
      dominators = std::make_unique<cfg::Dominators>(*sg);
    }
    {
      Span span(t, "cfg.rpo_priorities", "cfg", request);
      schedule = cfg::rpo_priorities(*sg, dominators->rpo());
    }
    decode_issues = !program->issues().empty() || !sg->issues().empty();
    {
      Span span(t, "value.run", "value", request);
      analysis::ValueAnalysis::Options va_options;
      if (options.use_annotations) va_options.access_facts = db.access_facts;
      transfers = std::make_unique<analysis::TransferCache>(*sg);
      values = std::make_unique<analysis::ValueAnalysis>(*sg, *forest, ahw.memory, va_options,
                                                         schedule);
      values->run(pool_ptr, transfers.get(), &governor);
    }
    if (program->fully_resolved()) break;
    // AnalysisContext::absorb_resolved_indirect_targets.
    bool grew = false;
    for (const auto& [pc, targets] : values->resolved_indirect_targets()) {
      auto& known = hints.indirect_targets[pc];
      for (const std::uint32_t target : targets) {
        if (std::find(known.begin(), known.end(), target) == known.end()) {
          known.push_back(target);
          grew = true;
        }
      }
    }
    if (!grew) break;
  }

  TracedOutcome out;
  LayerCounts& counts = out.counts;
  counts.sg_nodes = static_cast<int>(sg->nodes().size());
  counts.instances = static_cast<int>(sg->instances().size());
  counts.loops = static_cast<int>(forest->loops().size());

  std::map<int, std::uint64_t> merged;
  {
    Span span(t, "loop.run", "loop", request);
    const analysis::LoopBoundAnalysis loop_analysis(*sg, *forest, *dominators, *values,
                                                    transfers.get());
    merged = merge_loop_bounds(*sg, *forest, loop_analysis.run(), db, options);
  }
  counts.bounded_loops = static_cast<int>(merged.size());

  // CachePass: telemetry windows open before the recipes and fixpoint.
  analysis::reset_cache_join_stats();
  cow_leaf_stats().reset_window();
  {
    Span span(t, "recipe.build", "recipe", request);
    transfers->build_cache_recipes(ahw.memory, ahw.icache, ahw.dcache, pool_ptr);
  }
  std::unique_ptr<analysis::CacheAnalysis> caches;
  {
    Span span(t, "cache.run", "cache", request);
    caches = std::make_unique<analysis::CacheAnalysis>(
        *sg, *forest, *values, ahw.memory, ahw.icache, ahw.dcache,
        analysis::CacheAnalysis::Schedule::priority, schedule, transfers.get(), pool_ptr);
    caches->set_governor(&governor);
    caches->run();
  }
  const analysis::CacheJoinStats joins = analysis::cache_join_stats();
  counts.cache_joins = joins.joins;
  counts.cache_join_skips = joins.join_skips;
  const CowLeafStats& leaves = cow_leaf_stats();
  counts.set_image_allocs = leaves.allocs.load(std::memory_order_relaxed);
  counts.live_set_images_peak = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, leaves.peak.load(std::memory_order_relaxed)));

  std::unique_ptr<analysis::PipelineAnalysis> timing;
  {
    Span span(t, "pipeline.run", "pipeline", request);
    timing = std::make_unique<analysis::PipelineAnalysis>(*sg, *values, *caches, ahw);
    timing->run();
  }

  {
    Span span(t, "ipet.solve_both", "ipet", request);
    analysis::Ipet ipet(*sg, *forest, *values, *timing);
    ipet.set_pool(pool_ptr);
    const auto [wcet_result, bcet_result] = ipet.solve_both(ipet_options(merged, db, options, &governor));
    counts.sub_ilps = wcet_result.sub_ilps;
    counts.ipet_depth = wcet_result.decomposition_depth;
    counts.ilp_constraints = wcet_result.constraints;
    counts.phase1_pivots = wcet_result.phase1_pivots;
    counts.phase2_pivots = wcet_result.phase2_pivots;
    counts.crash_basis_rows = wcet_result.crash_basis_rows;
    out.ok = wcet_result.ok() && !decode_issues;
    if (wcet_result.ok()) out.wcet_cycles = wcet_result.bound;
    if (wcet_result.ok() && bcet_result.ok()) out.bcet_cycles = bcet_result.bound;
  }
  out.degraded = !governor.degradations().empty();
  return out;
}

} // namespace

TracedOutcome traced_analyze(const isa::Image& image, const mem::HwConfig& hw,
                             const std::string& annotations, const AnalysisOptions& options,
                             Tracer& tracer, int request) {
  Span root(&tracer, "request", "wcet", request);
  return run_layers(image, hw, annotations, options, tracer, request);
}

} // namespace perfbench
