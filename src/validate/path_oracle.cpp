#include "validate/path_oracle.hpp"

#include <algorithm>
#include <limits>

// Soundness of the bracket under truncation
// -----------------------------------------
// The sweep enumerates entry->exit walks over *feasible* edges only and
// admits a back-edge traversal of loop L only while
//
//   backs(L) + 1 <= bound(L) * entries(L)        (prefix-wise)
//
// where backs/entries count traversals on the current path prefix, with
// this edge's own loop-entry events applied first. Two containments
// follow:
//
//  * Every walk the sweep completes induces a node/edge count vector
//    satisfying the ILP's constraints — flow conservation holds for any
//    walk, the final prefix totals are the ILP's totals, so the
//    prefix-wise loop rule implies `sum(back) <= B * sum(entry)`, and
//    the flow-fact filters below reject exactly the count vectors the
//    ILP's fact rows cut off. Hence cost(path) is bounded by the ILP
//    optima in both senses: max explored <= WCET, BCET <= min explored.
//  * Every *real* execution keeps each loop sojourn under its bound, so
//    its prefix totals satisfy the same rule — the enumeration space
//    contains all real paths, which is what makes a `complete` sweep an
//    exact reference (on fact-free systems the ILP integral optimum is
//    walk-realizable, so `complete` implies equality, not just <=).
//
// Both properties hold for every prefix-closed subset of the search
// tree, so a budget-truncated sweep still yields a valid (just weaker)
// bracket.
namespace wcet::validate {

namespace {

constexpr std::uint64_t k_no_cost = std::numeric_limits<std::uint64_t>::max();

// Immutable per-explore() tables shared by both sweeps.
struct OracleContext {
  const cfg::Supergraph& sg;
  const analysis::PipelineAnalysis& pipeline;
  const PathOracleOptions& options;

  std::vector<char> feasible{};               // per edge
  std::vector<std::vector<int>> entry_of{};   // edge -> loops it enters
  std::vector<std::vector<int>> back_of{};    // edge -> loops it closes
  std::vector<std::int64_t> bound{};          // per loop, -1 = absent
  std::vector<char> is_exit{};                // per node
  std::vector<char> excluded{};               // per node (mode excludes + nevers)
  std::vector<std::vector<int>> caps_of{};    // node -> flow-cap indices
  std::vector<std::uint64_t> cap_max{};       // per cap
  std::vector<std::vector<int>> ratio_a_of{}; // node -> ratio indices (capped side)
  std::vector<std::vector<int>> ratio_b_of{}; // node -> ratio indices (relative side)
  std::vector<std::uint64_t> ratio_factor{};  // per ratio
  std::vector<std::vector<int>> pair_a_of{};  // node -> infeasible-pair indices
  std::vector<std::vector<int>> pair_b_of{};
  // Nodes carrying persistence-miss terms (the sparse minority).
  std::vector<int> ps_nodes{};
};

OracleContext build_context(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                            const analysis::PipelineAnalysis& pipeline,
                            const PathOracle::EdgeFeasible& edge_feasible,
                            const PathOracleOptions& options) {
  OracleContext ctx{sg, pipeline, options};
  const std::size_t n = sg.nodes().size();
  const std::size_t m = sg.edges().size();
  const std::size_t loop_count = loops.loops().size();

  ctx.feasible.assign(m, 1);
  if (edge_feasible) {
    for (std::size_t e = 0; e < m; ++e) {
      ctx.feasible[e] = edge_feasible(static_cast<int>(e)) ? 1 : 0;
    }
  }

  ctx.entry_of.resize(m);
  ctx.back_of.resize(m);
  ctx.bound.assign(loop_count, -1);
  for (const cfg::Loop& loop : loops.loops()) {
    for (const int eid : loop.entry_edges) {
      ctx.entry_of[static_cast<std::size_t>(eid)].push_back(loop.id);
    }
    for (const int eid : loop.back_edges) {
      ctx.back_of[static_cast<std::size_t>(eid)].push_back(loop.id);
    }
    const auto it = options.loop_bounds.find(loop.id);
    if (it != options.loop_bounds.end()) {
      ctx.bound[static_cast<std::size_t>(loop.id)] = static_cast<std::int64_t>(it->second);
    }
  }

  ctx.is_exit.assign(n, 0);
  for (const int node : sg.exit_nodes()) ctx.is_exit[static_cast<std::size_t>(node)] = 1;

  // Flow facts, keyed per node through the same address->node mapping
  // the ILP fact rows use (Supergraph::nodes_covering). A fact whose
  // address covers only unreachable nodes is inert here exactly as in
  // the ILP: those nodes are never visited, so their counts stay 0.
  ctx.excluded.assign(n, 0);
  for (const std::uint32_t addr : options.excluded_addrs) {
    for (const int node : sg.nodes_covering(addr)) {
      ctx.excluded[static_cast<std::size_t>(node)] = 1;
    }
  }
  ctx.caps_of.resize(n);
  for (const annot::FlowCapFact& cap : options.flow_caps) {
    const int index = static_cast<int>(ctx.cap_max.size());
    ctx.cap_max.push_back(cap.max_count);
    for (const int node : sg.nodes_covering(cap.addr)) {
      ctx.caps_of[static_cast<std::size_t>(node)].push_back(index);
    }
  }
  ctx.ratio_a_of.resize(n);
  ctx.ratio_b_of.resize(n);
  for (const annot::FlowRatioFact& ratio : options.flow_ratios) {
    const int index = static_cast<int>(ctx.ratio_factor.size());
    ctx.ratio_factor.push_back(ratio.factor);
    for (const int node : sg.nodes_covering(ratio.addr)) {
      ctx.ratio_a_of[static_cast<std::size_t>(node)].push_back(index);
    }
    for (const int node : sg.nodes_covering(ratio.relative_to)) {
      ctx.ratio_b_of[static_cast<std::size_t>(node)].push_back(index);
    }
  }
  ctx.pair_a_of.resize(n);
  ctx.pair_b_of.resize(n);
  int pair_count = 0;
  for (const annot::InfeasiblePairFact& pair : options.infeasible_pairs) {
    const int index = pair_count++;
    for (const int node : sg.nodes_covering(pair.a)) {
      ctx.pair_a_of[static_cast<std::size_t>(node)].push_back(index);
    }
    for (const int node : sg.nodes_covering(pair.b)) {
      ctx.pair_b_of[static_cast<std::size_t>(node)].push_back(index);
    }
  }

  for (std::size_t node = 0; node < n; ++node) {
    if (!pipeline.timing(static_cast<int>(node)).ps_terms.empty()) {
      ctx.ps_nodes.push_back(static_cast<int>(node));
    }
  }
  return ctx;
}

// One budgeted DFS over the feasible supergraph. `maximize` picks the
// successor bias: expensive-first with back edges up front (sharpens the
// max), or cheap-first with back edges last (sharpens the min).
class Sweep {
public:
  Sweep(const OracleContext& ctx, std::size_t loop_count, bool maximize)
      : ctx_(ctx), maximize_(maximize) {
    const std::size_t n = ctx.sg.nodes().size();
    exec_.assign(n, 0);
    entries_.assign(loop_count, 0);
    backs_.assign(loop_count, 0);
    cap_used_.assign(ctx.cap_max.size(), 0);
    ratio_a_.assign(ctx.ratio_factor.size(), 0);
    ratio_b_.assign(ctx.ratio_factor.size(), 0);
    std::size_t pairs = 0;
    for (const auto& list : ctx.pair_a_of) {
      for (const int p : list) pairs = std::max(pairs, static_cast<std::size_t>(p) + 1);
    }
    for (const auto& list : ctx.pair_b_of) {
      for (const int p : list) pairs = std::max(pairs, static_cast<std::size_t>(p) + 1);
    }
    pair_a_.assign(pairs, 0);
    pair_b_.assign(pairs, 0);
    build_order();
  }

  void run(int entry) {
    if (!try_arrive(entry)) return; // excluded entry: nothing reachable
    stack_.push_back({entry, -1, 0, false});
    maybe_record(stack_.back());
    while (!stack_.empty() && !truncated_) {
      Frame& frame = stack_.back();
      const std::vector<int>& order = succ_order_[static_cast<std::size_t>(frame.node)];
      if (frame.next >= order.size()) {
        if (!frame.progressed) ++dead_ends_;
        undo_arrive(frame.node);
        if (frame.edge_in >= 0) undo_edge(frame.edge_in);
        stack_.pop_back();
        continue;
      }
      if (steps_ >= ctx_.options.max_steps) {
        truncated_ = true;
        break;
      }
      const int eid = order[frame.next++];
      ++steps_;
      if ((steps_ & 0xfffu) == 0 && ctx_.options.checkpoint) ctx_.options.checkpoint();
      if (!try_edge(eid)) continue;
      const int to = ctx_.sg.edge(eid).to;
      if (!try_arrive(to)) {
        undo_edge(eid);
        continue;
      }
      frame.progressed = true;
      stack_.push_back({to, eid, 0, false});
      maybe_record(stack_.back());
      if (paths_ >= ctx_.options.max_paths) truncated_ = true;
    }
  }

  bool truncated() const { return truncated_; }
  std::uint64_t paths() const { return paths_; }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t dead_ends() const { return dead_ends_; }
  std::uint64_t max_cost() const { return max_cost_; }
  std::uint64_t min_cost() const { return min_cost_; }

private:
  struct Frame {
    int node = -1;
    int edge_in = -1;       // edge taken to arrive here (-1 at the entry)
    std::size_t next = 0;   // next successor-order index to try
    bool progressed = false; // descended, or a path was recorded here
  };

  void build_order() {
    const cfg::Supergraph& sg = ctx_.sg;
    succ_order_.resize(sg.nodes().size());
    for (const cfg::SgNode& node : sg.nodes()) {
      std::vector<int>& list = succ_order_[static_cast<std::size_t>(node.id)];
      for (const int eid : node.succ_edges) {
        if (ctx_.feasible[static_cast<std::size_t>(eid)]) list.push_back(eid);
      }
      const auto key = [&](int eid) -> std::uint64_t {
        const analysis::NodeTiming& t = ctx_.pipeline.timing(sg.edge(eid).to);
        return (maximize_ ? t.ub : t.lb) + ctx_.pipeline.edge_extra(eid);
      };
      const auto is_back = [&](int eid) {
        return !ctx_.back_of[static_cast<std::size_t>(eid)].empty();
      };
      std::sort(list.begin(), list.end(), [&](int a, int b) {
        const bool back_a = is_back(a);
        const bool back_b = is_back(b);
        if (back_a != back_b) return maximize_ ? back_a : back_b;
        const std::uint64_t key_a = key(a);
        const std::uint64_t key_b = key(b);
        if (key_a != key_b) return maximize_ ? key_a > key_b : key_a < key_b;
        return a < b; // deterministic tie-break
      });
    }
  }

  // Arrival at `node`: reject if an exclusion, an exhausted cap, or an
  // infeasible pair (other side already executed) prohibits it — all
  // three are prefix-prunable because counts only grow along a path.
  bool try_arrive(int node) {
    const auto id = static_cast<std::size_t>(node);
    if (ctx_.excluded[id]) return false;
    for (const int c : ctx_.caps_of[id]) {
      if (cap_used_[static_cast<std::size_t>(c)] + 1 >
          ctx_.cap_max[static_cast<std::size_t>(c)]) {
        return false;
      }
    }
    for (const int p : ctx_.pair_a_of[id]) {
      if (pair_b_[static_cast<std::size_t>(p)] > 0) return false;
    }
    for (const int p : ctx_.pair_b_of[id]) {
      if (pair_a_[static_cast<std::size_t>(p)] > 0) return false;
    }
    ++exec_[id];
    for (const int c : ctx_.caps_of[id]) ++cap_used_[static_cast<std::size_t>(c)];
    for (const int p : ctx_.pair_a_of[id]) ++pair_a_[static_cast<std::size_t>(p)];
    for (const int p : ctx_.pair_b_of[id]) ++pair_b_[static_cast<std::size_t>(p)];
    for (const int r : ctx_.ratio_a_of[id]) ++ratio_a_[static_cast<std::size_t>(r)];
    for (const int r : ctx_.ratio_b_of[id]) ++ratio_b_[static_cast<std::size_t>(r)];
    const analysis::NodeTiming& t = ctx_.pipeline.timing(node);
    cost_ub_ += t.ub;
    cost_lb_ += t.lb;
    return true;
  }

  void undo_arrive(int node) {
    const auto id = static_cast<std::size_t>(node);
    --exec_[id];
    for (const int c : ctx_.caps_of[id]) --cap_used_[static_cast<std::size_t>(c)];
    for (const int p : ctx_.pair_a_of[id]) --pair_a_[static_cast<std::size_t>(p)];
    for (const int p : ctx_.pair_b_of[id]) --pair_b_[static_cast<std::size_t>(p)];
    for (const int r : ctx_.ratio_a_of[id]) --ratio_a_[static_cast<std::size_t>(r)];
    for (const int r : ctx_.ratio_b_of[id]) --ratio_b_[static_cast<std::size_t>(r)];
    const analysis::NodeTiming& t = ctx_.pipeline.timing(node);
    cost_ub_ -= t.ub;
    cost_lb_ -= t.lb;
  }

  // Traversal of `eid`: apply its loop-entry events, then admit each
  // back-edge event only under the prefix-wise bound rule. A loop whose
  // bound is absent never passed the missing-bound pre-check with a
  // feasible entry, so its back edges are simply untakeable — mirroring
  // the ILP, which forces back-edge flow of entry-less loops to zero.
  bool try_edge(int eid) {
    const auto id = static_cast<std::size_t>(eid);
    for (const int l : ctx_.entry_of[id]) ++entries_[static_cast<std::size_t>(l)];
    for (const int l : ctx_.back_of[id]) {
      const auto loop = static_cast<std::size_t>(l);
      if (ctx_.bound[loop] < 0 ||
          backs_[loop] + 1 >
              static_cast<std::uint64_t>(ctx_.bound[loop]) * entries_[loop]) {
        for (const int undo : ctx_.entry_of[id]) --entries_[static_cast<std::size_t>(undo)];
        return false;
      }
    }
    for (const int l : ctx_.back_of[id]) ++backs_[static_cast<std::size_t>(l)];
    const unsigned extra = ctx_.pipeline.edge_extra(eid);
    cost_ub_ += extra;
    cost_lb_ += extra;
    return true;
  }

  void undo_edge(int eid) {
    const auto id = static_cast<std::size_t>(eid);
    for (const int l : ctx_.back_of[id]) --backs_[static_cast<std::size_t>(l)];
    for (const int l : ctx_.entry_of[id]) --entries_[static_cast<std::size_t>(l)];
    const unsigned extra = ctx_.pipeline.edge_extra(eid);
    cost_ub_ -= extra;
    cost_lb_ -= extra;
  }

  // The ILP lets flow pass *through* an exit node, so a path is
  // recorded at every exit arrival and the DFS still descends into the
  // exit's successors afterwards.
  void maybe_record(Frame& frame) {
    if (!ctx_.is_exit[static_cast<std::size_t>(frame.node)]) return;
    // Relative flow facts bound a count by another count that may still
    // grow, so they are checked at completion time only.
    for (std::size_t r = 0; r < ratio_a_.size(); ++r) {
      if (ratio_a_[r] > ctx_.ratio_factor[r] * ratio_b_[r]) return;
    }
    // Persistence-miss charge, mirroring the ILP's maximize optimum:
    // misses = min(executions, line_count * loop entries) per term. The
    // minimize optimum pins every miss to zero, so min_cost takes none.
    std::uint64_t ps = 0;
    for (const int node : ctx_.ps_nodes) {
      const std::uint64_t exec = exec_[static_cast<std::size_t>(node)];
      if (exec == 0) continue;
      for (const analysis::PsTerm& term : ctx_.pipeline.timing(node).ps_terms) {
        const std::uint64_t entries =
            term.loop_id >= 0 ? entries_[static_cast<std::size_t>(term.loop_id)] : 0;
        ps += term.penalty * std::min<std::uint64_t>(exec, term.line_count * entries);
      }
    }
    frame.progressed = true;
    ++paths_;
    max_cost_ = std::max(max_cost_, cost_ub_ + ps);
    min_cost_ = std::min(min_cost_, cost_lb_);
  }

  const OracleContext& ctx_;
  const bool maximize_;
  std::vector<std::vector<int>> succ_order_;
  std::vector<Frame> stack_;
  std::vector<std::uint64_t> exec_;
  std::vector<std::uint64_t> entries_;
  std::vector<std::uint64_t> backs_;
  std::vector<std::uint64_t> cap_used_;
  std::vector<std::uint64_t> ratio_a_;
  std::vector<std::uint64_t> ratio_b_;
  std::vector<std::uint64_t> pair_a_;
  std::vector<std::uint64_t> pair_b_;
  std::uint64_t cost_ub_ = 0;
  std::uint64_t cost_lb_ = 0;
  std::uint64_t paths_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t dead_ends_ = 0;
  std::uint64_t max_cost_ = 0;
  std::uint64_t min_cost_ = k_no_cost;
  bool truncated_ = false;
};

void merge_sweep(PathOracleResult& result, const Sweep& sweep) {
  result.paths_explored += sweep.paths();
  result.steps += sweep.steps();
  result.dead_ends += sweep.dead_ends();
  result.max_path_cost = std::max(result.max_path_cost, sweep.max_cost());
  result.min_path_cost = std::min(result.min_path_cost, sweep.min_cost());
}

} // namespace

PathOracle::PathOracle(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                       const analysis::PipelineAnalysis& pipeline,
                       EdgeFeasible edge_feasible)
    : sg_(sg), loops_(loops), pipeline_(pipeline), edge_feasible_(std::move(edge_feasible)) {}

PathOracleResult PathOracle::explore(const PathOracleOptions& options) const {
  PathOracleResult result;
  result.min_path_cost = k_no_cost;

  const OracleContext ctx = build_context(sg_, loops_, pipeline_, edge_feasible_, options);

  // Mirror Ipet::missing_loop_bounds_in: a loop with a feasible back
  // edge, a feasible entry edge, and no bound makes the enumeration
  // space infinite — the same configurations the ILP refuses to solve.
  for (const cfg::Loop& loop : loops_.loops()) {
    const auto any_feasible = [&](const std::vector<int>& edges) {
      return std::any_of(edges.begin(), edges.end(), [&](int eid) {
        return ctx.feasible[static_cast<std::size_t>(eid)] != 0;
      });
    };
    if (!any_feasible(loop.back_edges)) continue;
    if (!any_feasible(loop.entry_edges)) continue;
    if (options.loop_bounds.count(loop.id) != 0) continue;
    result.loops_missing_bounds.push_back(loop.id);
  }
  if (!result.loops_missing_bounds.empty()) {
    result.status = PathOracleResult::Status::missing_loop_bounds;
    result.min_path_cost = 0;
    return result;
  }

  const std::size_t loop_count = loops_.loops().size();
  Sweep max_sweep(ctx, loop_count, /*maximize=*/true);
  max_sweep.run(sg_.entry_node());
  merge_sweep(result, max_sweep);

  // A complete max-biased sweep visited the whole search space; its min
  // is already exact and the second sweep would retrace it.
  if (max_sweep.truncated()) {
    Sweep min_sweep(ctx, loop_count, /*maximize=*/false);
    min_sweep.run(sg_.entry_node());
    merge_sweep(result, min_sweep);
    result.status = PathOracleResult::Status::truncated;
  } else {
    result.status = PathOracleResult::Status::complete;
  }
  if (result.paths_explored == 0) {
    result.status = PathOracleResult::Status::no_paths;
    result.min_path_cost = 0;
  }
  return result;
}

} // namespace wcet::validate
