#include "wcet/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <tuple>

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

// ---------------------------------------------------------------- decode
void decode_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:decode");
  ctx.program = std::make_unique<cfg::Program>(
      cfg::Program::reconstruct(ctx.image, ctx.entry, ctx.hints));
  ctx.supergraph = std::make_unique<cfg::Supergraph>(
      cfg::Supergraph::expand(*ctx.program, ctx.sg_options));
  ctx.forest = std::make_unique<cfg::LoopForest>(*ctx.supergraph);
  ctx.dominators = std::make_unique<cfg::Dominators>(*ctx.supergraph);
  ctx.schedule = cfg::rpo_priorities(*ctx.supergraph, ctx.dominators->rpo());

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
// Incremental verification (src/serve): demote code-clean instances
// whose fresh value-analysis results differ from the previous run's —
// per-node in-states must compare equal and every edge whose source
// lies in the instance must keep its feasibility verdict. The warm
// cache fixpoint keys on these *verified* verdicts, never on code
// equality alone (per-sub-ILP reuse in the path phase compares its
// region inputs directly). Value analysis itself always re-runs cold
// because its widening/coarsening policy is trajectory-dependent and
// cannot be warm-started exactly.
void verify_warm_value(AnalysisContext& ctx) {
  AnalysisContext::WarmHandoff& warm = *ctx.warm;
  const AnalysisContext& prev = *warm.prev;
  const cfg::Supergraph& sg = *ctx.supergraph;
  for (const cfg::SgNode& n : sg.nodes()) {
    auto& flag = warm.instance_clean[static_cast<std::size_t>(n.instance)];
    if (flag == 0) continue;
    if (!(ctx.values->state_in(n.id) == prev.values->state_in(n.id))) flag = 0;
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
  if (ctx.warm != nullptr && ctx.warm->prev != nullptr &&
      ctx.warm->prev->values != nullptr) {
    verify_warm_value(ctx);
  }
}

// ------------------------------------------------------------ loop bounds
void loop_bounds_phase(AnalysisContext& ctx) {
  phase_boundary(ctx, "phase:loop-bounds");
  const cfg::Supergraph& supergraph = *ctx.supergraph;
  const cfg::LoopForest& forest = *ctx.forest;
  analysis::LoopBoundAnalysis loop_analysis(supergraph, forest, *ctx.dominators,
                                            *ctx.values, ctx.transfers.get());
  ctx.loop_results = loop_analysis.run();

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
  const bool warm_ready = ctx.warm != nullptr && ctx.warm->prev != nullptr &&
                          ctx.warm->prev->values != nullptr &&
                          ctx.warm->prev->caches != nullptr;
  ctx.caches = std::make_unique<analysis::CacheAnalysis>(
      *ctx.supergraph, *ctx.forest, *ctx.values, ctx.hw.memory, ctx.hw.icache,
      ctx.hw.dcache, analysis::CacheAnalysis::Schedule::priority, ctx.schedule,
      ctx.transfers.get(), ctx.pool);
  ctx.caches->set_governor(ctx.governor);
  if (warm_ready) {
    ctx.warm->cache_start =
        ctx.caches->run(ctx.warm->prev->caches.get(), &ctx.warm->instance_clean);
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
  ctx.pipeline->run();
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
  if (ctx.warm != nullptr && ctx.warm->prev != nullptr && ctx.warm->prev->pipeline != nullptr) {
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
  case analysis::IpetResult::Status::ok:
    report.wcet_cycles = wcet_result.bound;
    for (const auto& [node, count] : wcet_result.node_counts) {
      report.wcet_block_counts[supergraph.node(node).block->begin] += count;
    }
    break;
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

void run_phases(AnalysisContext& ctx,
                const std::function<void(AnalysisContext&)>& after_first_decode) {
  PhaseTimings& t = ctx.report.timings;
  // Front half (decode + value) with the Figure-1 feedback edge: value
  // analysis resolves indirect branches and triggers a re-decode,
  // bounded by max_decode_rounds.
  for (int round = 0; round < AnalysisOptions::max_decode_rounds; ++round) {
    timed(decode_phase, ctx, t.decode_ms);
    if (round == 0 && after_first_decode) after_first_decode(ctx);
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

void run_figure1(AnalysisContext& ctx, ThreadPool& pool,
                 const std::function<void(AnalysisContext&)>& after_first_decode) {
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
    run_phases(ctx, after_first_decode);
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
