// Path analysis (Figure 1, "Path Analysis") via Implicit Path
// Enumeration (IPET): maximize cycle-weighted execution counts subject
// to flow conservation, loop bounds, and the design-level flow facts of
// Section 4.3 (absolute/relative caps, infeasible pairs from mutually
// exclusive operating cycles, operating-mode exclusions).
//
// The ILP is solved exactly (rational simplex + branch & bound); the
// WCET bound is the ceiling of the optimum. Minimizing the same system
// with lower block bounds yields a BCET bound.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/pipeline_analysis.hpp"
#include "annot/annotations.hpp"
#include "cfg/domloop.hpp"
#include "support/ilp.hpp"

namespace wcet {
class ThreadPool;
}

namespace wcet::analysis {

// How the IPET ILP is split (see Ipet::solve_both). The optimum is
// provably identical in both modes; they differ only in how many
// independent sub-ILPs the solve fans out.
enum class IpetDecomposition {
  monolithic, // whole supergraph as one ILP (reference path)
  recursive,  // eligible call subtrees collapse into nested sub-ILPs
};

struct IpetOptions {
  IpetOptions() {}
  std::map<int, std::uint64_t> loop_bounds; // loop id -> max back edges per entry
  std::vector<annot::FlowCapFact> flow_caps;
  std::vector<annot::FlowRatioFact> flow_ratios;
  std::vector<annot::InfeasiblePairFact> infeasible_pairs;
  std::set<std::uint32_t> excluded_addrs; // mode excludes + nevers
  IpetDecomposition decomposition = IpetDecomposition::recursive;
  // Optional resource governor (support/budget.hpp): every region solve
  // runs under its per-solve pivot/node caps and cancellation
  // checkpoints. A truncated solve yields a *degraded* result (status
  // ok, `degraded` set, bound = best proven bound, no path witness);
  // a failed sub-solve falls back from recursive to monolithic, recorded
  // in the governor's ledger.
  const AnalysisGovernor* governor = nullptr;
};

struct IpetResult {
  // `node_limit`: branch & bound hit its cap before proving any bound.
  // `pivot_limit`: the root LP relaxation ran out of pivot budget — no
  // bound of any kind exists (reported as an obstruction upstream).
  enum class Status { ok, infeasible, unbounded, missing_loop_bounds, node_limit, pivot_limit };
  Status status = Status::infeasible;
  // True when any region solve was truncated by a pivot/node budget:
  // `bound` is then the best *proven* bound (still a true WCET upper /
  // BCET lower bound), but no integral path witness exists — the
  // witness-bearing `node_counts` of truncated regions stay empty, and
  // witness_available() below is the explicit signal callers must
  // branch on instead of probing the map for emptiness.
  bool degraded = false;
  std::uint64_t bound = 0;
  int variables = 0;
  int constraints = 0;
  int decomposed_regions = 0;  // top-level collapsed subtrees (0: monolithic)
  int sub_ilps = 0;            // sub-ILPs across all nesting levels
  int sub_ilps_reused = 0;     // ... adopted unsolved from a previous plan
  int decomposition_depth = 0; // nesting depth of the deepest sub-ILP
  // Simplex pivot split summed over every region solve (see LpSolution):
  // a workload solved off network-flow crash bases reports
  // phase1_pivots == 0 unless the crash solution violates a fact or
  // other inequality row, and then pays phase 1 for those rows only.
  std::uint64_t phase1_pivots = 0;
  std::uint64_t phase2_pivots = 0;
  std::uint64_t crash_basis_rows = 0;
  std::map<int, std::uint64_t> node_counts; // extremal path witness
  std::vector<int> loops_missing_bounds;

  bool ok() const { return status == Status::ok; }
  // The extremal-path witness contract made explicit: a usable
  // `node_counts` witness exists only for an exact (non-degraded) ok
  // solve. Degraded solves prove a bound without an integral incumbent,
  // so downstream consumers (witness replay, reporting) must classify
  // them as "no witness" rather than silently reading an empty map.
  bool witness_available() const { return ok() && !degraded && !node_counts.empty(); }
};

class Ipet {
public:
  // One collapsed function-instance subtree: a single-entry
  // (call edge), single-return-site region whose ILP block is
  // independent of the rest of the system (see plan_decomposition).
  // `children` are eligible subtrees nested inside this one — planning
  // re-enters each collapsed subtree, so deep call trees become a tree
  // of sub-ILPs instead of one monolithic sub-solve.
  struct Sub {
    int instance = -1;
    int call_site = -1;   // node holding the call, outside the subtree
    int call_edge = -1;   // only edge entering the subtree
    int entry_node = -1;  // callee entry (virtual source of the sub-ILP)
    int return_site = -1; // every boundary exit targets this node
    std::vector<int> ret_edges;
    std::vector<int> nodes; // member node ids, ascending (incl. children)
    std::vector<Sub> children;
    // Per-solve state: subtree optima in internal maximize sense (the
    // WCET/maximize optimum and the BCET/minimize one), plus the region
    // solve results.
    Rational objective;
    Rational objective_bcet;
    IpetResult result;
    IpetResult result_bcet;
    bool reused = false; // adopted from the previous plan without solving
  };
  // The solved sub-ILP forest of one solve_both call (empty when the
  // solve ran monolithic).
  using Plan = std::vector<Sub>;
  // A solve of a structurally identical supergraph (same node, edge,
  // loop and instance ids): the plan it returned and the inputs it was
  // solved from. The analysis server hands the previous request's
  // solve back on a warm run.
  struct Previous {
    const Plan& plan;
    const ValueAnalysis& values;
    const PipelineAnalysis& pipeline;
    const std::map<int, std::uint64_t>& loop_bounds;
  };

  Ipet(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
       const ValueAnalysis& values, const PipelineAnalysis& pipeline);

  // The pool the independent per-instance subproblems of a decomposed
  // solve fan out across, one parallel_for per plan level (null: run
  // inline, as on a one-worker pool). The decomposition plan and the
  // merge order are pure functions of the graph, so results are
  // bit-identical for any worker count.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Solve the WCET (maximize) and BCET (minimize) bounds of one
  // configuration together — {wcet, bcet} — sharing the decomposition
  // plan, every region's constraint system, and the phase-1 simplex
  // work between the two senses (the constraint systems are identical;
  // only the objective differs). When the WCET solve fails, the BCET
  // half is returned as-is and should be ignored (matching the driver's
  // "no BCET without a WCET" convention).
  //
  // `solved` receives the solved plan. With `previous`, a sub-ILP adopts
  // the previous plan's objectives and results for the same call edge
  // without solving when the previous results were exact, it has the
  // same member set (nested children included), and its inputs compare
  // equal: reachability and timing of every member node,
  // feasibility and extra cost of every edge touching one, and the
  // bound of every loop headed at one. A sub's solve is a pure function
  // of exactly those inputs, so the results are bit-identical to a
  // fresh solve. The outer region always solves.
  std::pair<IpetResult, IpetResult> solve_both(const IpetOptions& options,
                                               const Previous* previous = nullptr,
                                               Plan* solved = nullptr) const;

private:
  struct RegionSpec {
    const std::vector<int>* nodes = nullptr; // ascending node ids; null: whole supergraph
    int source_node = -1;                      // virtual source, flow 1
    bool top_level = true; // sinks at task exits (else at sink_ret_edges)
    const std::vector<int>* sink_ret_edges = nullptr;
    const std::vector<Sub>* children = nullptr; // collapsed subtrees of this region
  };
  // One emitted region problem: the sense-independent constraint system
  // plus both objective vectors (internal maximize sense) and the
  // virtual-source objective constants.
  struct RegionBuild;

  std::pair<IpetResult, IpetResult> solve_monolithic_both(const IpetOptions& options) const;
  std::pair<IpetResult, IpetResult> solve_region_both(
      const RegionSpec& spec, const IpetOptions& options, Rational* objective_max_out,
      Rational* objective_min_out, std::map<int, std::uint64_t>* edge_counts_max_out,
      std::map<int, std::uint64_t>* edge_counts_min_out) const;
  // Emit the region's constraint system and both objectives. Returns
  // false when the solve is already decided (no reachable exit, or a
  // maximize-fatal missing loop bound) with the verdict in build.early.
  bool build_region(const RegionSpec& spec, const IpetOptions& options,
                    RegionBuild& build) const;
  IpetResult extract_region(const RegionBuild& build, const RegionSpec& spec, bool maximize,
                            const LpSolution& solution, Rational* objective_out,
                            std::map<int, std::uint64_t>* edge_counts_out) const;
  // Append the inbound-flow terms of a node (in-edges plus the
  // super-edges of children returning here), scaled; returns the
  // virtual-source constant (1 at the region source).
  int append_in_flow(const RegionSpec& spec, const RegionBuild& build, int node_id,
                     const Rational& scale, std::vector<LinTerm>& terms) const;
  // Solve one collapsed subtree's region (children already solved) in
  // both senses off one shared build, filling both objectives and
  // results and merging child witnesses.
  void solve_sub_both(Sub& sub, const IpetOptions& options) const;
  // Region spec of a collapsed subtree (its nodes minus its collapsed
  // children, virtual source at the callee entry, sinks at the ret
  // edges); `nodes` receives the node list the spec points at.
  static RegionSpec sub_region_spec(Sub& sub, std::vector<int>& nodes);
  // The reuse rule of solve_both for one sub against its previous
  // counterpart (children already decided).
  bool reusable(const Sub& sub, const Sub& before, const Previous& previous,
                const IpetOptions& options) const;
  // Nesting depth and total count of a sub-ILP plan (for telemetry).
  static int plan_stats(const std::vector<Sub>& subs, int* total_subs);
  // Plumbing of solve_both(): the per-solve plan (fact pruning),
  // the missing-loop-bound pre-check replicating the monolithic scan,
  // the level-by-level fan-out over the pool (subs of height 0 first,
  // parents after their tallest child; false: some sub failed ->
  // monolithic fallback; `reused` counts adopted subs), and the merge
  // of sub results into the outer result.
  std::vector<Sub> planned_subs(const IpetOptions& options) const;
  std::vector<int> missing_loop_bounds_in(const IpetOptions& options) const;
  bool solve_levels(std::vector<Sub>& subs, const IpetOptions& options,
                    const Previous* previous, int& reused) const;
  static void merge_sub_results(IpetResult& outer, const std::vector<Sub>& subs,
                                const std::map<int, std::uint64_t>& edge_counts,
                                bool bcet_sense);
  std::vector<Sub> plan_decomposition() const;
  // Plan the eligible subtrees of one region (the whole graph, or the
  // inside of a collapsed subtree), recursing into each collapsed sub.
  std::vector<Sub> plan_region(int root_instance, std::size_t region_size,
                               const std::vector<std::vector<int>>& children,
                               const std::vector<std::size_t>& subtree_nodes,
                               const std::set<int>& exit_set) const;
  // Seed the region's ILP with a network-flow crash basis (see
  // IlpProblem::set_basis_hint): a spanning forest of the balance-row
  // flow network carrying one unit of source-to-sink flow. Emitted
  // whenever every equality-row variable is a well-formed arc and a
  // back-edge-free source-to-sink path exists, with or without
  // design-level fact rows (a fact the crash solution violates costs
  // phase-1 pivots on that row only); otherwise a no-op and the solver
  // runs its ordinary phase 1. `balance_row` holds the balance row of
  // each region node by its position in the region (-1: unreachable).
  void emit_crash_basis(const RegionSpec& spec, RegionBuild& build,
                        const std::vector<int>& balance_row,
                        const std::vector<std::pair<int, int>>& sink_var_node,
                        int sum_row) const;
  bool subtree_eligible(int instance, const std::vector<std::vector<int>>& children,
                        const std::set<int>& exit_set, Sub& sub) const;
  std::size_t reachable_in(const std::vector<int>& nodes) const;
  // Per-subtree flow-fact eligibility: the reachable nodes constrained
  // by any flow cap / ratio / infeasible pair / exclusion in `options`
  // (empty when no facts are present).
  std::vector<char> constrained_nodes(const IpetOptions& options) const;
  // Drop every subtree a constrained node pins, promoting unpinned
  // nested children into the parent region.
  static std::vector<Sub> prune_pinned(std::vector<Sub> subs, const std::vector<char>& pinned);

  const cfg::Supergraph& sg_;
  const cfg::LoopForest& loops_;
  const ValueAnalysis& values_;
  const PipelineAnalysis& pipeline_;
  ThreadPool* pool_ = nullptr;
};

} // namespace wcet::analysis
