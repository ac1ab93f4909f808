#include "wcet/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "support/cow.hpp"
#include "support/fault_inject.hpp"
#include "support/thread_pool.hpp"
#include "validate/path_oracle.hpp"
#include "validate/witness_replay.hpp"

namespace wcet {

bool AnalysisContext::absorb_resolved_indirect_targets() {
  const auto resolved = values->resolved_indirect_targets();
  bool grew = false;
  for (const auto& [pc, targets] : resolved) {
    auto& known = hints.indirect_targets[pc];
    for (const std::uint32_t target : targets) {
      if (std::find(known.begin(), known.end(), target) == known.end()) {
        known.push_back(target);
        grew = true;
      }
    }
  }
  return grew;
}

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Shared phase prologue: a named fault-injection site (no-op unless
// armed) plus a cancellation checkpoint, so even a phase that never
// reaches an inner checkpoint observes a pending cancel at the phase
// boundary.
void phase_boundary(const AnalysisContext& ctx, const char* site) {
  WCET_FAULT_POINT(site);
  if (ctx.governor != nullptr) ctx.governor->check_cancel();
}

// ------------------------------------------------------------------ warm
// The warm handoff carries per-node verdicts between two supergraph
// expansions, so the expansions must agree on every structural index:
// node <-> (instance, block) assignment, edge endpoints and kinds, and
// the instance tree itself. Any mismatch (an edit that moved a block
// boundary, added an edge, changed inlining depth) voids positional
// reuse entirely — the request runs cold.
bool structure_identical(const cfg::Supergraph& a, const cfg::Supergraph& b) {
  if (a.entry_node() != b.entry_node()) return false;
  if (a.nodes().size() != b.nodes().size() || a.edges().size() != b.edges().size() ||
      a.instances().size() != b.instances().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const cfg::SgNode& x = a.nodes()[i];
    const cfg::SgNode& y = b.nodes()[i];
    if (x.instance != y.instance || x.fn_entry != y.fn_entry ||
        x.block->begin != y.block->begin || x.block->end != y.block->end ||
        x.block->insts.size() != y.block->insts.size()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    const cfg::SgEdge& x = a.edges()[i];
    const cfg::SgEdge& y = b.edges()[i];
    if (x.from != y.from || x.to != y.to || x.kind != y.kind) return false;
  }
  for (std::size_t i = 0; i < a.instances().size(); ++i) {
    const cfg::Instance& x = a.instances()[i];
    const cfg::Instance& y = b.instances()[i];
    if (x.fn_entry != y.fn_entry || x.caller_instance != y.caller_instance ||
        x.call_site_node != y.call_site_node) {
      return false;
    }
  }
  return true;
}

// The word addresses whose bytes differ between two images, ascending;
// nullopt when the section layouts (names, placement, sizes, flags)
// differ.
std::optional<std::vector<std::uint32_t>> changed_words(const isa::Image& image,
                                                        const isa::Image& prev) {
  if (image.sections().size() != prev.sections().size()) return std::nullopt;
  std::vector<std::uint32_t> words;
  for (std::size_t i = 0; i < image.sections().size(); ++i) {
    const isa::Section& a = image.sections()[i];
    const isa::Section& b = prev.sections()[i];
    if (a.name != b.name || a.vaddr != b.vaddr || a.bytes.size() != b.bytes.size() ||
        a.writable != b.writable || a.executable != b.executable) {
      return std::nullopt;
    }
    if (a.bytes == b.bytes) continue;
    for (std::size_t off = 0; off < a.bytes.size(); ++off) {
      if (a.bytes[off] == b.bytes[off]) continue;
      const std::uint32_t word = (a.vaddr + static_cast<std::uint32_t>(off)) & ~3u;
      if (words.empty() || words.back() != word) words.push_back(word);
    }
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

// True when a changed word lies in [lo, hi] (inclusive byte range).
bool touches_changed_word(const std::vector<std::uint32_t>& words, std::int64_t lo,
                          std::int64_t hi) {
  const auto it = std::lower_bound(words.begin(), words.end(), lo,
                                   [](std::uint32_t w, std::int64_t v) { return w < v; });
  return it != words.end() && *it <= hi;
}

// Installs the warm handoff against `prev`, whose supergraph is
// structurally identical to ctx's: a node is code-clean when none of
// its block's words changed, an instance when all of its nodes are.
void install_warm(AnalysisContext& ctx, const AnalysisContext& prev) {
  std::optional<std::vector<std::uint32_t>> words = changed_words(ctx.image, prev.image);
  if (!words) return;
  auto warm = std::make_unique<AnalysisContext::WarmHandoff>();
  warm->prev = &prev;
  warm->changed_words = std::move(*words);
  const cfg::Supergraph& sg = *ctx.supergraph;
  warm->node_clean.assign(sg.nodes().size(), 1);
  warm->instance_clean.assign(sg.instances().size(), 1);
  for (const cfg::SgNode& n : sg.nodes()) {
    if (!touches_changed_word(warm->changed_words, n.block->begin,
                              static_cast<std::int64_t>(n.block->end) - 1)) {
      continue;
    }
    warm->node_clean[static_cast<std::size_t>(n.id)] = 0;
    warm->instance_clean[static_cast<std::size_t>(n.instance)] = 0;
  }
  warm->dirty_instances = static_cast<int>(
      std::count(warm->instance_clean.begin(), warm->instance_clean.end(), 0));
  ctx.warm = std::move(warm);
}

// ---------------------------------------------------------------- decode
void decode_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:decode");
  ctx.program = std::make_unique<cfg::Program>(
      cfg::Program::reconstruct(ctx.image, ctx.entry, ctx.hints));
  ctx.supergraph = std::make_unique<cfg::Supergraph>(
      cfg::Supergraph::expand(*ctx.program, ctx.sg_options));
  // The round-0 decode consumes the reuse anchor. On a structurally
  // identical supergraph the loop forest, dominators and schedule
  // priorities (pure functions of node and edge ids) are the anchor's.
  const AnalysisContext* anchor = std::exchange(ctx.anchor, nullptr);
  if (anchor != nullptr && structure_identical(*anchor->supergraph, *ctx.supergraph)) {
    ctx.forest = anchor->forest;
    ctx.dominators = anchor->dominators;
    ctx.schedule = anchor->schedule;
    install_warm(ctx, *anchor);
  } else {
    ctx.forest = std::make_shared<const cfg::LoopForest>(*ctx.supergraph);
    auto dominators = std::make_shared<const cfg::Dominators>(*ctx.supergraph);
    ctx.schedule = cfg::rpo_priorities(*ctx.supergraph, dominators->rpo());
    ctx.dominators = std::move(dominators);
  }

  // Report stats and decode obstructions are rebuilt from scratch each
  // round so the feedback loop stays idempotent (only the final round
  // survives into the report).
  WcetReport& report = ctx.report;
  report.functions = static_cast<int>(ctx.program->functions().size());
  report.blocks = 0;
  for (const auto& [addr, fn] : ctx.program->functions()) {
    report.blocks += static_cast<int>(fn.blocks.size());
  }
  report.sg_nodes = static_cast<int>(ctx.supergraph->nodes().size());
  report.sg_edges = static_cast<int>(ctx.supergraph->edges().size());
  report.obstructions.clear();
  for (const cfg::DecodeIssue& issue : ctx.program->issues()) {
    std::ostringstream os;
    os << "decode: " << issue.message << " at " << ctx.image.describe(issue.pc);
    report.obstructions.push_back(os.str());
  }
  for (const cfg::SupergraphIssue& issue : ctx.supergraph->issues()) {
    std::ostringstream os;
    os << "expansion: " << issue.message << " at " << ctx.image.describe(issue.pc);
    report.obstructions.push_back(os.str());
  }
}

// ----------------------------------------------------------------- value
// Incremental verification (src/serve): narrow the code-clean verdicts
// to what the fresh value analysis confirms. A node stays clean when
// its in-state and access list compare equal to the previous run's
// and none of its accesses may read a changed image word. Within one
// node the value analysis derives everything (states before each
// instruction, accesses, the out-state and the refinement along each
// out-edge) from the in-state, the code words and the image words its
// accesses read, so a clean node's value results are all equal. The
// access lists matter on their own: a data-only edit can move an
// access to another cache line while every in-state stays equal. An
// instance stays clean when all of its nodes do and every edge leaving
// one of them keeps its feasibility verdict. The later phases adopt
// per item on these *verified* verdicts, never on code equality alone.
// Value analysis itself always re-runs cold because its
// widening/coarsening policy is trajectory-dependent and cannot be
// warm-started exactly.
bool value_results_equal(const AnalysisContext& ctx, const AnalysisContext& prev, int node) {
  if (!(ctx.values->state_in(node) == prev.values->state_in(node))) return false;
  const std::vector<analysis::AccessInfo>& accesses = ctx.values->accesses(node);
  if (accesses != prev.values->accesses(node)) return false;
  for (const analysis::AccessInfo& access : accesses) {
    if (access.addr.is_bottom()) continue;
    // Every word a load (or a sub-word store's merge) reads lies in
    // [umin & ~3, umax + 3].
    if (touches_changed_word(ctx.warm->changed_words, access.addr.umin() & ~std::int64_t{3},
                             access.addr.umax() + 3)) {
      return false;
    }
  }
  return true;
}

void verify_warm_value(AnalysisContext& ctx) {
  AnalysisContext::WarmHandoff& warm = *ctx.warm;
  const AnalysisContext& prev = *warm.prev;
  const cfg::Supergraph& sg = *ctx.supergraph;
  for (const cfg::SgNode& n : sg.nodes()) {
    char& node_flag = warm.node_clean[static_cast<std::size_t>(n.id)];
    if (node_flag != 0 && !value_results_equal(ctx, prev, n.id)) node_flag = 0;
    if (node_flag == 0) warm.instance_clean[static_cast<std::size_t>(n.instance)] = 0;
  }
  for (const cfg::SgEdge& e : sg.edges()) {
    auto& flag = warm.instance_clean[static_cast<std::size_t>(sg.node(e.from).instance)];
    if (flag == 0) continue;
    if (ctx.values->edge_feasible(e.id) != prev.values->edge_feasible(e.id)) flag = 0;
  }
}

void value_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:value");
  analysis::ValueAnalysis::Options va_options;
  va_options.access_facts = ctx.annotations.access_facts;
  ctx.transfers = std::make_unique<analysis::TransferCache>(*ctx.supergraph);
  ctx.values = std::make_unique<analysis::ValueAnalysis>(
      *ctx.supergraph, *ctx.forest, ctx.hw.memory, va_options, ctx.schedule);
  ctx.values->run(ctx.pool, ctx.transfers.get(), ctx.governor);
  if (ctx.warm != nullptr) verify_warm_value(ctx);
}

// ------------------------------------------------------------ loop bounds
void loop_bounds_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:loop-bounds");
  const cfg::Supergraph& supergraph = *ctx.supergraph;
  const cfg::LoopForest& forest = *ctx.forest;
  analysis::LoopBoundAnalysis loop_analysis(supergraph, forest, *ctx.dominators,
                                            *ctx.values, ctx.transfers.get());
  if (ctx.warm != nullptr) {
    const AnalysisContext& prev = *ctx.warm->prev;
    const analysis::LoopBoundAnalysis::Previous previous{
        prev.loop_results, *prev.values, *prev.transfers, ctx.warm->node_clean};
    ctx.loop_results = loop_analysis.run(&previous, &ctx.warm->loop_bounds_adopted);
  } else {
    ctx.loop_results = loop_analysis.run();
  }

  WcetReport& report = ctx.report;
  report.loop_count = static_cast<int>(forest.loops().size());
  for (const cfg::Loop& loop : forest.loops()) {
    const analysis::LoopBoundResult& lr =
        ctx.loop_results[static_cast<std::size_t>(loop.id)];
    LoopInfo info;
    const cfg::SgNode& header = supergraph.node(loop.header);
    info.header_addr = header.block->begin;
    info.context = supergraph.context_of(loop.header);
    info.irreducible = loop.irreducible;
    info.analyzed_bound = lr.bound;
    info.detail = lr.detail;
    if (lr.irreducible) ++report.irreducible_loops;

    // An annotation "loop at X" applies to the innermost loop whose
    // body covers X.
    std::optional<std::uint64_t> annotated;
    for (const annot::LoopBoundFact& fact : ctx.annotations.loop_bounds) {
      if (!fact.mode.empty() && fact.mode != ctx.options.mode) continue;
      bool covers = false;
      for (const int node_id : loop.nodes) {
        const cfg::CfgBlock& block = *supergraph.node(node_id).block;
        if (fact.addr >= block.begin && fact.addr < block.end) {
          covers = true;
          break;
        }
      }
      if (!covers) continue;
      // Innermost: no child loop also covers the address.
      bool child_covers = false;
      for (const int child : loop.children) {
        for (const int node_id : forest.loop(child).nodes) {
          const cfg::CfgBlock& block = *supergraph.node(node_id).block;
          if (fact.addr >= block.begin && fact.addr < block.end) {
            child_covers = true;
            break;
          }
        }
        if (child_covers) break;
      }
      if (child_covers) continue;
      annotated = annotated ? std::min(*annotated, fact.max_iterations)
                            : fact.max_iterations;
    }
    info.annotated_bound = annotated;

    if (info.analyzed_bound && info.annotated_bound) {
      info.used_bound = std::min(*info.analyzed_bound, *info.annotated_bound);
    } else if (info.analyzed_bound) {
      info.used_bound = info.analyzed_bound;
    } else {
      info.used_bound = info.annotated_bound;
    }
    if (info.used_bound) {
      ctx.merged_bounds[loop.id] = *info.used_bound;
      ++report.bounded_loops;
    }
    report.loops.push_back(std::move(info));
  }
}

// ----------------------------------------------------------------- cache
// Runs the must/may fixpoint on the per-instance round engine with the
// shared transfer cache: recipe slots are built once per decode round
// (fanned out over the pool) and replayed by every fixpoint visit; the
// "cache" timing bucket covers both.
void cache_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:cache");
  // Open a fresh COW telemetry window so the report counters describe
  // this phase alone (telemetry only — results never read them).
  analysis::reset_cache_join_stats();
  cow_leaf_stats().reset_window();
  // A handoff that reached this phase had its clean verdicts verified
  // by value_phase (a re-decode drops the handoff).
  ctx.caches = std::make_unique<analysis::CacheAnalysis>(
      *ctx.supergraph, *ctx.forest, *ctx.values, ctx.hw.memory, ctx.hw.icache,
      ctx.hw.dcache, analysis::CacheAnalysis::Schedule::priority, ctx.schedule,
      ctx.transfers.get(), ctx.pool);
  ctx.caches->set_governor(ctx.governor);
  if (ctx.warm != nullptr) {
    ctx.warm->cache_start = ctx.caches->run(ctx.warm->prev->caches.get(),
                                            &ctx.warm->instance_clean, &ctx.warm->node_clean);
    ctx.warm->node_rows_adopted = ctx.caches->adopted_rows();
  } else {
    ctx.caches->run();
  }
  ctx.report.cache_stats = ctx.caches->stats();
  const analysis::CacheJoinStats joins = analysis::cache_join_stats();
  ctx.report.cache_joins = joins.joins;
  ctx.report.cache_join_skips = joins.join_skips;
  const CowLeafStats& leaves = cow_leaf_stats();
  ctx.report.set_image_allocs = leaves.allocs.load(std::memory_order_relaxed);
  ctx.report.live_set_images_peak = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, leaves.peak.load(std::memory_order_relaxed)));
}

// -------------------------------------------------------------- pipeline
void pipeline_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:pipeline");
  ctx.pipeline = std::make_unique<analysis::PipelineAnalysis>(*ctx.supergraph, *ctx.values,
                                                              *ctx.caches, ctx.hw);
  if (ctx.warm != nullptr) {
    ctx.pipeline->run(ctx.warm->prev->pipeline.get(), &ctx.warm->node_clean);
    ctx.warm->node_timings_adopted = ctx.pipeline->adopted_timings();
  } else {
    ctx.pipeline->run();
  }
}

// The exact option set path analysis solves with — shared with the
// validation phase so both oracles constrain paths with precisely the
// loop bounds and flow facts the ILP saw, never a re-derivation.
analysis::IpetOptions ipet_options_for(const AnalysisContext& ctx) {
  analysis::IpetOptions ipet_options;
  ipet_options.loop_bounds = ctx.merged_bounds;
  ipet_options.decomposition = ctx.options.decomposition;
  ipet_options.governor = ctx.governor;
  for (const annot::FlowCapFact& cap : ctx.annotations.flow_caps) {
    if (cap.mode.empty() || cap.mode == ctx.options.mode) {
      ipet_options.flow_caps.push_back(cap);
    }
  }
  ipet_options.flow_ratios = ctx.annotations.flow_ratios;
  ipet_options.infeasible_pairs = ctx.annotations.infeasible_pairs;
  ipet_options.excluded_addrs = ctx.annotations.excluded_addrs(ctx.options.mode);
  return ipet_options;
}

// ------------------------------------------------------------------ path
void path_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:path");
  analysis::Ipet ipet(*ctx.supergraph, *ctx.forest, *ctx.values, *ctx.pipeline);
  ipet.set_pool(ctx.pool);
  // A warm run hands back the previous run's solve: every sub-ILP whose
  // region inputs compare equal adopts its previous results unsolved.
  std::optional<analysis::Ipet::Previous> previous;
  if (ctx.warm != nullptr) {
    const AnalysisContext& prev = *ctx.warm->prev;
    previous.emplace(analysis::Ipet::Previous{prev.ipet_plan, *prev.values, *prev.pipeline,
                                              prev.merged_bounds});
  }
  // One combined WCET+BCET solve: the two senses share the
  // decomposition plan, every region's constraint system, and the
  // phase-1 simplex work (see Ipet::solve_both).
  const auto t_ilp = std::chrono::steady_clock::now();
  analysis::IpetResult bcet_result;
  std::tie(ctx.wcet_result, bcet_result) = ipet.solve_both(
      ipet_options_for(ctx), previous ? &*previous : nullptr, &ctx.ipet_plan);
  ctx.report.timings.ilp_ms += ms_since(t_ilp);

  const cfg::Supergraph& supergraph = *ctx.supergraph;
  const analysis::IpetResult& wcet_result = ctx.wcet_result;
  WcetReport& report = ctx.report;
  report.ilp_variables = wcet_result.variables;
  report.ilp_constraints = wcet_result.constraints;
  report.ipet_regions = wcet_result.decomposed_regions;
  report.ipet_sub_ilps = wcet_result.sub_ilps;
  report.ipet_depth = wcet_result.decomposition_depth;
  report.phase1_pivots = wcet_result.phase1_pivots;
  report.phase2_pivots = wcet_result.phase2_pivots;
  report.crash_basis_rows = wcet_result.crash_basis_rows;

  switch (wcet_result.status) {
  case analysis::IpetResult::Status::ok: {
    report.wcet_cycles = wcet_result.bound;
    // Instances of one function share block addresses: sort the
    // per-node counts by address and sum runs of equal addresses.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> counts;
    counts.reserve(wcet_result.node_counts.size());
    for (const auto& [node, count] : wcet_result.node_counts) {
      counts.emplace_back(supergraph.node(node).block->begin, count);
    }
    std::sort(counts.begin(), counts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t merged = 0;
    for (const auto& [addr, count] : counts) {
      if (merged > 0 && counts[merged - 1].first == addr) {
        counts[merged - 1].second += count;
      } else {
        counts[merged++] = {addr, count};
      }
    }
    report.wcet_block_counts.assign_range(counts.begin(), counts.begin() + merged);
    break;
  }
  case analysis::IpetResult::Status::missing_loop_bounds:
    for (const int loop_id : wcet_result.loops_missing_bounds) {
      const cfg::Loop& loop = ctx.forest->loop(loop_id);
      std::ostringstream os;
      os << "loop bound missing for loop at "
         << ctx.image.describe(supergraph.node(loop.header).block->begin) << " ("
         << supergraph.context_of(loop.header) << "): "
         << report.loops[static_cast<std::size_t>(loop_id)].detail;
      report.obstructions.push_back(os.str());
    }
    break;
  case analysis::IpetResult::Status::infeasible:
    report.obstructions.push_back(
        "path analysis: ILP infeasible (contradictory flow facts?)");
    break;
  case analysis::IpetResult::Status::unbounded:
    report.obstructions.push_back("path analysis: ILP unbounded (missing loop bound?)");
    break;
  case analysis::IpetResult::Status::node_limit:
    report.obstructions.push_back("path analysis: branch & bound node limit reached");
    break;
  case analysis::IpetResult::Status::pivot_limit:
    report.obstructions.push_back(
        "path analysis: pivot budget exhausted before the root relaxation proved any "
        "bound");
    break;
  }

  if (wcet_result.ok() && bcet_result.ok()) report.bcet_cycles = bcet_result.bound;

  report.witness_available = wcet_result.witness_available();
  report.ok = wcet_result.ok() && report.obstructions.empty();
}

// ------------------------------------------------------------- validation
// Two independent oracles against the bounds the path phase just stated:
// bounded exhaustive path exploration (bracket from both sides) and a
// concrete simulator replay (measured lower bound + tightness). Runs
// only when AnalysisOptions::validate is set; every leg that cannot run
// records a classified reason in report.validation_skipped — a skipped
// check must never read as a passed one.
void validate_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:validate");
  WcetReport& report = ctx.report;
  report.validated = true;
  const auto skip = [&](const std::string& why) {
    if (!report.validation_skipped.empty()) report.validation_skipped += "; ";
    report.validation_skipped += why;
  };
  if (!report.ok) {
    skip("no bound stated (obstructions present)");
    return;
  }

  const analysis::IpetOptions ipet_options = ipet_options_for(ctx);
  const auto edge_feasible = [&ctx](int eid) { return ctx.values->edge_feasible(eid); };

  // Leg 1: exhaustive path exploration under the same loop bounds and
  // flow facts, costed with the same per-node timing recipes.
  validate::PathOracle oracle(*ctx.supergraph, *ctx.forest, *ctx.pipeline, edge_feasible);
  validate::PathOracleOptions oracle_options;
  oracle_options.loop_bounds = ipet_options.loop_bounds;
  oracle_options.flow_caps = ipet_options.flow_caps;
  oracle_options.flow_ratios = ipet_options.flow_ratios;
  oracle_options.infeasible_pairs = ipet_options.infeasible_pairs;
  oracle_options.excluded_addrs = ipet_options.excluded_addrs;
  oracle_options.max_paths = ctx.options.validate_max_paths;
  oracle_options.max_steps = ctx.options.validate_max_steps;
  if (ctx.governor != nullptr) {
    const AnalysisGovernor* governor = ctx.governor;
    oracle_options.checkpoint = [governor] { governor->check_cancel(); };
  }
  const validate::PathOracleResult paths = oracle.explore(oracle_options);
  report.paths_explored = paths.paths_explored;
  report.oracle_complete = paths.complete();
  if (paths.usable()) {
    report.oracle_max_path_cost = paths.max_path_cost;
    report.oracle_min_path_cost = paths.min_path_cost;
    report.oracle_bracket_ok = paths.max_path_cost <= report.wcet_cycles &&
                               report.bcet_cycles <= paths.min_path_cost;
  } else {
    skip("path oracle found no complete path within its budget");
  }

  // Leg 2: witness realization + simulator replay. Degraded solves
  // carry no witness by contract (IpetResult::witness_available).
  if (!report.witness_available) {
    skip(ctx.wcet_result.degraded
             ? "budget-degraded solve carries no path witness; replay skipped"
             : "no path witness; replay skipped");
    return;
  }
  const validate::WitnessCheck witness = validate::check_witness(
      *ctx.supergraph, *ctx.forest, ipet_options.loop_bounds,
      ctx.wcet_result.node_counts, edge_feasible, ctx.options.validate_witness_max_steps);
  report.witness_checked = witness.decided();
  report.witness_valid = witness.ok();
  if (witness.status == validate::WitnessCheck::Status::budget_exhausted) {
    // Deliberately no `return`: the simulator replay below is
    // witness-independent, so an exhausted walk budget skips only the
    // realization verdict. Skip reasons accumulate ("; "-joined, see
    // `skip` above) — an earlier reason is never overwritten.
    skip("witness walk budget exhausted before a verdict");
  }
  if (ctx.entry != ctx.image.entry()) {
    skip("function-scoped analysis (entry is not the image entry); replay skipped");
    return;
  }
  // Flow facts are *trusted*: the computed bound is conditional on
  // them, and a concrete run under the simulator's default inputs may
  // legitimately violate a fact (and thus the bound). Only a
  // fact-free bound is an unconditional promise a replay can check.
  if (!ipet_options.flow_caps.empty() || !ipet_options.flow_ratios.empty() ||
      !ipet_options.infeasible_pairs.empty() || !ipet_options.excluded_addrs.empty()) {
    skip("trusted flow facts condition the bound; unconstrained replay skipped");
    return;
  }
  validate::ReplayOptions replay_options;
  // Cap far above the bound: a genuinely unsound bound must surface
  // as measured > wcet, not vanish under the cap. Saturated — for
  // bounds past UINT64_MAX/2 the doubled cap would wrap to a *small*
  // cap and truncate exactly the replays that matter most.
  constexpr std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();
  replay_options.max_cycles = report.wcet_cycles > (u64_max - 1024) / 2
                                  ? u64_max
                                  : report.wcet_cycles * 2 + 1024;
  const validate::ReplayResult replay =
      validate::replay_measured(ctx.image, ctx.hw, replay_options);
  if (!replay.ok()) {
    skip(replay.reason);
    return;
  }
  report.witness_replayed = true;
  report.measured_cycles = replay.measured_cycles;
  if (replay.measured_cycles == 0) {
    // tightness 0 is the "no replay" sentinel; a measured zero must
    // not masquerade as it silently.
    skip("replay measured zero cycles; tightness undefined");
    return;
  }
  // 128-bit widening: wcet * 1000 wraps uint64 for bounds past
  // ~1.8e16 cycles, which would report a nonsensically *tight* ratio.
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(report.wcet_cycles) * 1000u / replay.measured_cycles;
  report.tightness_x1000 =
      scaled > u64_max ? u64_max : static_cast<std::uint64_t>(scaled);
}

// Runs one phase and adds its wall time to `bucket`.
void timed(void (*phase)(AnalysisContext&), AnalysisContext& ctx, double& bucket) {
  const auto start = std::chrono::steady_clock::now();
  phase(ctx);
  bucket += ms_since(start);
}

void run_phases(AnalysisContext& ctx) {
  PhaseTimings& t = ctx.report.timings;
  // Front half (decode + value) with the Figure-1 feedback edge: value
  // analysis resolves indirect branches and triggers a re-decode,
  // bounded by max_decode_rounds.
  for (int round = 0; round < AnalysisOptions::max_decode_rounds; ++round) {
    timed(decode_phase, ctx, t.decode_ms);
    timed(value_phase, ctx, t.value_ms);
    if (ctx.program->fully_resolved()) break;
    if (!ctx.absorb_resolved_indirect_targets()) break;
    // A re-decode rebuilds the supergraph: every positional warm
    // verdict is void. Continue cold.
    ctx.warm.reset();
  }
  timed(loop_bounds_phase, ctx, t.loop_ms);
  timed(cache_phase, ctx, t.cache_ms);
  timed(pipeline_phase, ctx, t.pipeline_ms);
  timed(path_phase, ctx, t.path_ms);
  if (ctx.options.validate) timed(validate_phase, ctx, t.validate_ms);
}

} // namespace

void run_figure1(AnalysisContext& ctx, ThreadPool& pool) {
  // Reject a malformed entry up front: an entry point outside every
  // section (or past a truncated section's end) is an input defect,
  // not an analysis obstruction.
  if (!ctx.image.read_word(ctx.entry)) {
    std::ostringstream os;
    os << "entry point 0x" << std::hex << ctx.entry
       << " has no complete instruction word (outside every section, or the image is "
          "truncated)";
    throw InputError(os.str());
  }
  ctx.hints.indirect_targets = ctx.annotations.indirect_targets;
  ctx.sg_options.recursion_depths = ctx.annotations.recursion_depths;
  ctx.pool = &pool;

  // One governor per analysis: the budget tracker / cancellation hub
  // every phase and pool worker consults (support/budget.hpp). Neither
  // the pool nor the context may keep pointing at it after the run.
  AnalysisGovernor governor(ctx.options.budget);
  ctx.governor = &governor;
  pool.set_governor(&governor);
  struct Release {
    AnalysisContext& ctx;
    ThreadPool& pool;
    ~Release() {
      pool.set_governor(nullptr);
      ctx.governor = nullptr;
      if (ctx.caches != nullptr) ctx.caches->set_governor(nullptr);
    }
  } release{ctx, pool};

  try {
    run_phases(ctx);
  } catch (const std::bad_alloc&) {
    // Classify allocation failure as an analysis-level outcome: the
    // caller (and the CLI error boundary) must never see a raw
    // bad_alloc escape the analyzer.
    throw AnalysisError("analysis ran out of memory");
  }

  WcetReport& report = ctx.report;
  report.degradations = governor.degradations();
  report.degraded = !report.degradations.empty();
  report.budget_checks = governor.budget_checks();
  report.cancel_latency_us = governor.cancel_latency_us();
}

} // namespace wcet
