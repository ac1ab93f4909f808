// The Figure-1 pipeline: one fixed phase sequence over a shared context.
//
// `AnalysisContext` owns every per-decode-round artifact (Program,
// Supergraph, LoopForest, Dominators, RPO schedule, value states,
// transfer cache) plus the later-phase results, and collects
// obstructions into the report under construction.
//
// `run_figure1` is the one driver both front ends call
// (`Analyzer::analyze_entry` and `serve::AnalysisServer`): decode and
// value re-run while value analysis keeps resolving new indirect-branch
// targets, then loop bounds, cache, pipeline, path (and, on request,
// validation) run once. Each phase is timed into its
// `WcetReport::timings` bucket; re-run phases accumulate across rounds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
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
#include "wcet/analyzer.hpp"

namespace wcet {

class ThreadPool;

struct AnalysisContext {
  AnalysisContext(const isa::Image& image, const mem::HwConfig& hw,
                  const annot::AnnotationDb& annotations, const AnalysisOptions& options,
                  std::uint32_t entry)
      : image(image), hw(hw), annotations(annotations), options(options), entry(entry) {}

  // Immutable inputs.
  const isa::Image& image;
  const mem::HwConfig& hw;
  const annot::AnnotationDb& annotations;
  const AnalysisOptions& options;
  std::uint32_t entry = 0;
  // Worker pool shared by every phase (a one-worker pool is the
  // sequential schedule). All parallel schedules are deterministic, so
  // results do not depend on its size.
  ThreadPool* pool = nullptr;
  // Per-analysis resource governor, set by run_figure1 for the duration
  // of the run; phases consult it for cancellation and step budgets.
  const AnalysisGovernor* governor = nullptr;

  // Decode-round artifacts (rebuilt each round of the feedback loop).
  cfg::ResolutionHints hints;
  cfg::Supergraph::Options sg_options;
  std::unique_ptr<cfg::Program> program;
  std::unique_ptr<cfg::Supergraph> supergraph;
  // Pure functions of the supergraph's node and edge ids: shared with
  // the previous run when the round-0 supergraph is structurally
  // identical to its (see decode_phase).
  std::shared_ptr<const cfg::LoopForest> forest;
  std::shared_ptr<const cfg::Dominators> dominators;
  std::vector<int> schedule; // shared RPO priorities; the round engine nests loops
  std::unique_ptr<analysis::ValueAnalysis> values;
  std::unique_ptr<analysis::TransferCache> transfers;

  // Later-phase artifacts.
  std::vector<analysis::LoopBoundResult> loop_results;
  std::map<int, std::uint64_t> merged_bounds;
  std::unique_ptr<analysis::CacheAnalysis> caches;
  std::unique_ptr<analysis::PipelineAnalysis> pipeline;
  analysis::IpetResult wcet_result;
  // The solved sub-ILP plan: the next warm run's path phase hands it
  // back to Ipet::solve_both, which adopts every sub-ILP whose region
  // inputs are unchanged.
  analysis::Ipet::Plan ipet_plan;

  // Incremental re-analysis (src/serve). The analysis server offers
  // the previous converged run of the same options, hardware and
  // annotations as `anchor`. The round-0 decode consumes it: when the
  // fresh supergraph is structurally identical to the anchor's and the
  // images share one section layout, it installs `warm` with
  // per-node and per-instance code-equality verdicts. Every reuse
  // below is verified, never trusted, and nothing reads the anchor
  // but through const access that leaves it as it was:
  //   - the value phase always re-runs cold and narrows the verdicts
  //     to nodes whose value results compare equal;
  //   - loop bounds adopt a loop's previous result when its nodes are
  //     clean and its entry-edge states compare equal;
  //   - the cache phase adopts clean nodes' recipes, warm-starts the
  //     fixpoint under the verified instance verdicts (falling back
  //     to a cold fixpoint on any boundary divergence) and, once the
  //     warm start committed, adopts the classification rows of clean
  //     nodes whose in-states are the frozen snapshots;
  //   - the pipeline phase adopts a clean node's timing when its rows
  //     were adopted;
  //   - the path phase adopts a previous sub-ILP's results only when
  //     every input of its region compares equal (Ipet::solve_both)
  //     and always re-solves the outer region.
  // A warm run is therefore bit-identical to a cold run by
  // construction.
  const AnalysisContext* anchor = nullptr;
  struct WarmHandoff {
    const AnalysisContext* prev = nullptr; // previous converged context
    // Word addresses whose image bytes differ from the previous
    // image's, ascending.
    std::vector<std::uint32_t> changed_words;
    // Per node: code words equal to the previous image's; the value
    // phase narrows it to nodes whose value results are unchanged (see
    // verify_warm_value).
    std::vector<char> node_clean;
    // Per instance: every node clean; the value phase also requires
    // that each edge leaving one of its nodes keeps its feasibility.
    std::vector<char> instance_clean;
    int dirty_instances = 0;               // code-dirty instance count
    // How the cache fixpoint started under this handoff.
    analysis::CacheAnalysis::Start cache_start = analysis::CacheAnalysis::Start::cold;
    // Per-item adoptions of the back-half phases.
    std::size_t loop_bounds_adopted = 0;
    std::size_t node_rows_adopted = 0;
    std::size_t node_timings_adopted = 0;
  };
  std::unique_ptr<WarmHandoff> warm; // null: cold request

  // Report under construction; phases append obstructions here.
  WcetReport report;

  // Feedback edge of Figure 1: merge value-analysis-resolved indirect
  // targets into the decode hints; true when a new target appeared.
  bool absorb_resolved_indirect_targets();
};

// Runs the Figure-1 phases over `ctx` on `pool` (a one-worker pool runs
// sequentially). Rejects an entry point with no instruction word
// (InputError), seeds the decode hints from the annotations, owns the
// run's AnalysisGovernor and copies its degradation ledger into
// `ctx.report`, and maps allocation failure to AnalysisError. A
// re-decode voids the warm handoff, so the remaining rounds run cold.
// `timings.total_ms` is left to the caller.
void run_figure1(AnalysisContext& ctx, ThreadPool& pool);

} // namespace wcet
