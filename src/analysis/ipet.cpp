#include "analysis/ipet.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "support/diag.hpp"
#include "support/thread_pool.hpp"

namespace wcet::analysis {

namespace {

// Big-M of the infeasible-pair disjunction: assumed to exceed the summed
// block count at either address of a pair.
constexpr std::int64_t infeasible_pair_big_m = std::int64_t{1} << 20;

// Per-region resource envelope. The governor's node cap can only
// tighten the built-in 20000-node safety limit, never raise it.
SolveLimits region_limits(const IpetOptions& options) {
  SolveLimits limits;
  if (options.governor != nullptr) {
    const std::uint64_t nodes = options.governor->ilp_node_limit();
    if (nodes != 0) {
      limits.node_limit = static_cast<int>(
          std::min<std::uint64_t>(nodes, static_cast<std::uint64_t>(limits.node_limit)));
    }
    limits.pivot_limit = options.governor->pivot_limit();
    limits.governor = options.governor;
  }
  return limits;
}

bool same_timing(const NodeTiming& a, const NodeTiming& b) {
  return a.lb == b.lb && a.ub == b.ub &&
         std::equal(a.ps_terms.begin(), a.ps_terms.end(), b.ps_terms.begin(), b.ps_terms.end(),
                    [](const PsTerm& x, const PsTerm& y) {
                      return x.loop_id == y.loop_id && x.penalty == y.penalty &&
                             x.line_count == y.line_count;
                    });
}

// Dense id -> position map over the id span of one ascending id list:
// O(span) to build, O(1) to look up, -1 for an id not on the list. The
// supergraph numbers a call subtree's nodes and edges in one compact
// range (call-DFS order), so a sub-ILP region pays for its own size,
// not the whole supergraph's.
class IdIndex {
public:
  IdIndex() = default;
  explicit IdIndex(const std::vector<int>& ascending) {
    if (ascending.empty()) return;
    lo_ = ascending.front();
    pos_.assign(static_cast<std::size_t>(ascending.back() - lo_) + 1, -1);
    for (std::size_t i = 0; i < ascending.size(); ++i) {
      pos_[static_cast<std::size_t>(ascending[i] - lo_)] = static_cast<int>(i);
    }
  }
  int operator[](int id) const {
    const auto k = static_cast<std::size_t>(id - lo_); // below the span wraps past it
    return k < pos_.size() ? pos_[k] : -1;
  }

private:
  int lo_ = 0;
  std::vector<int> pos_;
};

// The value paired with `key` in an ascending (key, value) list, or -1.
int lookup(const std::vector<std::pair<int, int>>& ascending, int key) {
  const auto it = std::lower_bound(
      ascending.begin(), ascending.end(), key,
      [](const std::pair<int, int>& entry, int k) { return entry.first < k; });
  return it != ascending.end() && it->first == key ? it->second : -1;
}

// Adjacency lists in two flat arrays: the entries of vertex v are
// entries[start[v] .. start[v + 1]), in the order `added` lists them.
template <typename T>
struct Adjacency {
  std::vector<int> start;
  std::vector<T> entries;

  Adjacency(int vertices, const std::vector<std::pair<int, T>>& added)
      : start(static_cast<std::size_t>(vertices) + 1, 0), entries(added.size()) {
    for (const auto& [v, entry] : added) ++start[static_cast<std::size_t>(v) + 1];
    for (std::size_t v = 1; v < start.size(); ++v) start[v] += start[v - 1];
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (const auto& [v, entry] : added) {
      entries[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] = entry;
    }
  }
  template <typename Fn>
  void for_each(int v, Fn&& fn) const {
    for (int k = start[static_cast<std::size_t>(v)]; k < start[static_cast<std::size_t>(v) + 1];
         ++k) {
      if (!fn(entries[static_cast<std::size_t>(k)])) return;
    }
  }
};

std::optional<std::uint64_t> bound_of(const std::map<int, std::uint64_t>& bounds, int loop) {
  const auto it = bounds.find(loop);
  if (it == bounds.end()) return std::nullopt;
  return it->second;
}

} // namespace

Ipet::Ipet(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
           const ValueAnalysis& values, const PipelineAnalysis& pipeline)
    : sg_(sg), loops_(loops), values_(values), pipeline_(pipeline) {}

// ---------------------------------------------------------------------------
// Decomposed solve.
//
// The supergraph is a tree of function instances; a subtree entered by a
// single call edge whose call site lies outside every loop, leaving only
// through ret edges onto one return site, with no task exit and no dead
// end inside, forms an *independent block* of the IPET ILP: its entry
// count is 0 or 1 in every feasible flow (DAG-condensation argument — a
// node outside all SCCs carries at most the unit source flow), no loop
// or persistence constraint crosses its boundary, and when no flow fact
// touches its nodes nothing else couples it to the rest of the system.
// The global optimum therefore decomposes exactly:
//
//   opt(whole) = opt(outer with subtree collapsed to one variable y,
//                    objective coefficient = opt(subtree | entry = 1))
//
// Planning re-enters each collapsed subtree, so a deep call tree
// becomes a tree of small sub-ILPs instead of one monolithic sub-solve.
// The sub-ILPs run on the thread pool level by level (solve_levels):
// every child objective is ready before its parent region solves, and
// the result is the same for any worker count.
//
// Annotation-driven flow facts (caps / ratios / infeasible pairs /
// exclusions) no longer disable decomposition wholesale: each fact pins
// exactly the subtrees whose member nodes it constrains (the coupling a
// collapsed block cannot express), those subtrees stay in the outer
// region, and the facts are emitted as outer-region constraints. Any
// other condition that would break exactness (call site inside a loop,
// exit/dead-end nodes inside, irregular boundary) disqualifies the
// subtree during planning; if a sub-ILP ends non-optimal the solver
// falls back to the monolithic path wholesale.
//
// Across a warm re-analysis the solved plan comes back as `Previous`,
// and each sub whose region inputs are unchanged adopts its previous
// objectives and results instead of solving (see reusable()).
// ---------------------------------------------------------------------------

int Ipet::plan_stats(const std::vector<Sub>& subs, int* total_subs) {
  int depth = 0;
  for (const Sub& sub : subs) {
    if (total_subs != nullptr) ++*total_subs;
    depth = std::max(depth, 1 + plan_stats(sub.children, total_subs));
  }
  return depth;
}

std::vector<Ipet::Sub> Ipet::planned_subs(const IpetOptions& options) const {
  std::vector<Sub> subs = plan_decomposition();
  const std::vector<char> pinned = constrained_nodes(options);
  if (!pinned.empty()) subs = prune_pinned(std::move(subs), pinned);
  return subs;
}

std::vector<int> Ipet::missing_loop_bounds_in(const IpetOptions& options) const {
  // Replicates the monolithic scan order (ascending loop id) and
  // predicates so obstruction lists match the reference path.
  std::vector<int> missing;
  for (const cfg::Loop& loop : loops_.loops()) {
    const auto any_feasible = [&](const std::vector<int>& edges) {
      return std::any_of(edges.begin(), edges.end(),
                         [&](int eid) { return values_.edge_feasible(eid); });
    };
    if (!any_feasible(loop.back_edges)) continue;
    if (!any_feasible(loop.entry_edges)) continue;
    if (options.loop_bounds.count(loop.id) != 0) continue;
    missing.push_back(loop.id);
  }
  return missing;
}

bool Ipet::solve_levels(std::vector<Sub>& subs, const IpetOptions& options,
                        const Previous* previous, int& reused) const {
  // Solve the sub-ILP forest level by level: levels[h] holds the subs
  // of height h (0 for a leaf, else 1 + the tallest child), and each
  // level is one parallel_for, heights ascending. Two subs of one
  // height are never nested, so the postorder walk below lists each
  // level in plan (preorder) order. Results stay bit-identical for any
  // worker count because each sub is a pure function of its own region
  // and its children's stored results, written to its own Sub slot,
  // and parallel_for's barrier publishes one level before the next
  // starts.
  std::vector<std::vector<Sub*>> levels;
  const auto place = [&](auto&& self, Sub& sub) -> std::size_t {
    std::size_t height = 0;
    for (Sub& child : sub.children) height = std::max(height, self(self, child) + 1);
    if (height == levels.size()) levels.emplace_back();
    levels[height].push_back(&sub);
    return height;
  };
  for (Sub& sub : subs) place(place, sub);
  // The previous plan's subs by call edge: the identity of an instance
  // across structurally identical supergraphs.
  std::vector<const Sub*> before;
  if (previous != nullptr) {
    const auto collect = [&](auto&& self, const std::vector<Sub>& list) -> void {
      for (const Sub& sub : list) {
        before.push_back(&sub);
        self(self, sub.children);
      }
    };
    collect(collect, previous->plan);
    std::sort(before.begin(), before.end(),
              [](const Sub* a, const Sub* b) { return a->call_edge < b->call_edge; });
  }
  const auto solve_one = [&](Sub& sub) {
    for (const Sub& child : sub.children) {
      // A failed child poisons the plan; skipping the parent leaves
      // its default (infeasible) result to report the failure below.
      if (!child.result.ok() || !child.result_bcet.ok()) return;
    }
    const auto match = std::lower_bound(
        before.begin(), before.end(), sub.call_edge,
        [](const Sub* b, int call_edge) { return b->call_edge < call_edge; });
    if (match != before.end() && (*match)->call_edge == sub.call_edge &&
        reusable(sub, **match, *previous, options)) {
      sub.objective = (*match)->objective;
      sub.objective_bcet = (*match)->objective_bcet;
      sub.result = (*match)->result;
      sub.result_bcet = (*match)->result_bcet;
      sub.reused = true;
      return;
    }
    solve_sub_both(sub, options);
  };
  for (const std::vector<Sub*>& level : levels) {
    parallel_for(pool_, level.size(), [&](std::size_t i) { solve_one(*level[i]); });
  }
  bool ok = true;
  reused = 0;
  for (const std::vector<Sub*>& level : levels) {
    for (const Sub* sub : level) {
      reused += sub->reused ? 1 : 0;
      ok = ok && sub->result.ok() && sub->result_bcet.ok();
    }
  }
  return ok;
}

// A sub's solve reads its region (member nodes minus its children's),
// the reachability and timing of those nodes, the feasibility and extra
// cost of the edges touching them, the bounds of the loops headed at
// them (every loop touching a region is headed in it: a cycle across a
// collapsed boundary would pass a call site, which eligibility keeps
// loop-free), its children's objectives and results, and the per-solve
// limits of `options` — fixed for a server's lifetime. Checking every
// member node, the children's included, covers the children too: the
// plan below a sub is a function of the same inputs, and a child whose
// inputs are unchanged was adopted with its previous results, so a
// changed child re-solves all of its ancestors.
bool Ipet::reusable(const Sub& sub, const Sub& before, const Previous& previous,
                    const IpetOptions& options) const {
  const auto exact = [](const IpetResult& r) { return r.ok() && !r.degraded; };
  if (!exact(before.result) || !exact(before.result_bcet)) return false;
  if (sub.nodes != before.nodes) return false;
  const auto same_edge = [&](int eid) {
    return values_.edge_feasible(eid) == previous.values.edge_feasible(eid) &&
           pipeline_.edge_extra(eid) == previous.pipeline.edge_extra(eid);
  };
  for (const int node_id : sub.nodes) {
    if (values_.node_reachable(node_id) != previous.values.node_reachable(node_id) ||
        !same_timing(pipeline_.timing(node_id), previous.pipeline.timing(node_id))) {
      return false;
    }
    const cfg::SgNode& node = sg_.node(node_id);
    if (!std::all_of(node.succ_edges.begin(), node.succ_edges.end(), same_edge) ||
        !std::all_of(node.pred_edges.begin(), node.pred_edges.end(), same_edge)) {
      return false;
    }
  }
  // The loops headed at a member are on its chain of containing loops.
  for (const int node_id : sub.nodes) {
    for (int l = loops_.innermost_loop_of(node_id); l >= 0; l = loops_.loop(l).parent) {
      if (loops_.loop(l).header == node_id &&
          bound_of(options.loop_bounds, l) != bound_of(previous.loop_bounds, l)) {
        return false;
      }
    }
  }
  return true;
}

void Ipet::merge_sub_results(IpetResult& outer, const std::vector<Sub>& subs,
                             const std::map<int, std::uint64_t>& edge_counts,
                             bool bcet_sense) {
  if (!outer.ok()) return;
  for (const Sub& sub : subs) {
    const IpetResult& sub_result = bcet_sense ? sub.result_bcet : sub.result;
    outer.variables += sub_result.variables;
    outer.constraints += sub_result.constraints;
    outer.degraded = outer.degraded || sub_result.degraded;
    // Solver telemetry aggregates bottom-up: each sub's result already
    // carries its own children's share (solve_sub_both merged them).
    outer.phase1_pivots += sub_result.phase1_pivots;
    outer.phase2_pivots += sub_result.phase2_pivots;
    outer.crash_basis_rows += sub_result.crash_basis_rows;
    const auto y = edge_counts.find(sub.call_edge);
    if (y != edge_counts.end() && y->second > 0) {
      // Entry counts are 0/1, so the subtree witness merges unscaled.
      for (const auto& [node, count] : sub_result.node_counts) {
        outer.node_counts[node] = count;
      }
    }
  }
}

std::pair<IpetResult, IpetResult> Ipet::solve_both(const IpetOptions& options,
                                                   const Previous* previous,
                                                   Plan* solved) const {
  if (solved != nullptr) solved->clear();
  if (options.decomposition == IpetDecomposition::monolithic) {
    return solve_monolithic_both(options);
  }
  std::vector<Sub> subs = planned_subs(options);
  if (subs.empty()) return solve_monolithic_both(options);

  // Missing-loop-bound pre-check for the WCET half; the BCET half is
  // skipped then, matching the driver's convention.
  {
    IpetResult missing;
    missing.loops_missing_bounds = missing_loop_bounds_in(options);
    if (!missing.loops_missing_bounds.empty()) {
      missing.status = IpetResult::Status::missing_loop_bounds;
      return {std::move(missing), IpetResult{}};
    }
  }

  int total_subs = 0;
  const int plan_depth = plan_stats(subs, &total_subs);
  int reused = 0;
  if (!solve_levels(subs, options, previous, reused)) {
    // Fallback: a failed sub-solve (structurally, or out of pivot
    // budget) gives up on decomposition and solves the reference ILP.
    if (options.governor != nullptr) {
      options.governor->record("path", "sub-solve failure",
                               "decomposition fell back to monolithic");
    }
    return solve_monolithic_both(options);
  }

  // Outer problem over the remaining nodes with one variable per
  // collapsed top-level subtree.
  std::vector<char> collapsed(sg_.nodes().size(), 0);
  for (const Sub& sub : subs) {
    for (const int n : sub.nodes) collapsed[static_cast<std::size_t>(n)] = 1;
  }
  std::vector<int> outer_nodes;
  for (std::size_t n = 0; n < collapsed.size(); ++n) {
    if (!collapsed[n]) outer_nodes.push_back(static_cast<int>(n));
  }
  RegionSpec spec;
  spec.nodes = &outer_nodes;
  spec.source_node = sg_.entry_node();
  spec.top_level = true;
  spec.children = &subs;
  std::map<int, std::uint64_t> edge_counts_max;
  std::map<int, std::uint64_t> edge_counts_min;
  auto [wcet, bcet] =
      solve_region_both(spec, options, nullptr, nullptr, &edge_counts_max, &edge_counts_min);
  for (IpetResult* outer : {&wcet, &bcet}) {
    outer->decomposed_regions = static_cast<int>(subs.size());
    outer->sub_ilps = total_subs;
    outer->sub_ilps_reused = reused;
    outer->decomposition_depth = plan_depth;
  }
  merge_sub_results(wcet, subs, edge_counts_max, /*bcet_sense=*/false);
  merge_sub_results(bcet, subs, edge_counts_min, /*bcet_sense=*/true);
  if (solved != nullptr) *solved = std::move(subs);
  return {std::move(wcet), std::move(bcet)};
}

// The region of a collapsed subtree is the subtree minus its own
// collapsed children; fills `nodes` and returns the region spec.
Ipet::RegionSpec Ipet::sub_region_spec(Sub& sub, std::vector<int>& nodes) {
  std::vector<int> holes;
  for (const Sub& child : sub.children) {
    holes.insert(holes.end(), child.nodes.begin(), child.nodes.end());
  }
  std::sort(holes.begin(), holes.end());
  nodes.clear();
  std::set_difference(sub.nodes.begin(), sub.nodes.end(), holes.begin(), holes.end(),
                      std::back_inserter(nodes));
  RegionSpec spec;
  spec.nodes = &nodes;
  spec.source_node = sub.entry_node;
  spec.top_level = false;
  spec.sink_ret_edges = &sub.ret_edges;
  if (!sub.children.empty()) spec.children = &sub.children;
  return spec;
}

void Ipet::solve_sub_both(Sub& sub, const IpetOptions& options) const {
  std::vector<int> nodes;
  const RegionSpec spec = sub_region_spec(sub, nodes);
  const bool has_children = !sub.children.empty();
  std::map<int, std::uint64_t> edge_counts_max;
  std::map<int, std::uint64_t> edge_counts_min;
  auto [wcet, bcet] = solve_region_both(spec, options, &sub.objective, &sub.objective_bcet,
                                        has_children ? &edge_counts_max : nullptr,
                                        has_children ? &edge_counts_min : nullptr);
  sub.result = std::move(wcet);
  sub.result_bcet = std::move(bcet);
  if (!sub.result.ok() || !sub.result_bcet.ok()) return;
  merge_sub_results(sub.result, sub.children, edge_counts_max, /*bcet_sense=*/false);
  merge_sub_results(sub.result_bcet, sub.children, edge_counts_min, /*bcet_sense=*/true);
}

std::size_t Ipet::reachable_in(const std::vector<int>& nodes) const {
  return static_cast<std::size_t>(std::count_if(
      nodes.begin(), nodes.end(), [&](int n) { return values_.node_reachable(n); }));
}

std::vector<Ipet::Sub> Ipet::plan_decomposition() const {
  const std::size_t num_nodes = sg_.nodes().size();
  std::size_t total_reachable = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (values_.node_reachable(static_cast<int>(n))) ++total_reachable;
  }
  // Below this the monolithic simplex is already fast; skipping keeps
  // small programs (and most unit tests) on the reference path.
  if (total_reachable < 48) return {};

  const auto& instances = sg_.instances();
  // Callers-before-callees order (verified by the export): accumulating
  // subtree sizes in reverse visits every callee before its caller.
  const std::vector<int> topo = sg_.instance_topo_order();
  std::vector<std::vector<int>> children(instances.size());
  std::vector<std::size_t> subtree_nodes(instances.size(), 0);
  for (const int i : topo) {
    subtree_nodes[static_cast<std::size_t>(i)] = sg_.instance_nodes(i).size();
    const int caller = instances[static_cast<std::size_t>(i)].caller_instance;
    if (caller >= 0) children[static_cast<std::size_t>(caller)].push_back(i);
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int caller = instances[static_cast<std::size_t>(*it)].caller_instance;
    if (caller >= 0) {
      subtree_nodes[static_cast<std::size_t>(caller)] +=
          subtree_nodes[static_cast<std::size_t>(*it)];
    }
  }

  const std::set<int> exit_set(sg_.exit_nodes().begin(), sg_.exit_nodes().end());
  return plan_region(0, total_reachable, children, subtree_nodes, exit_set);
}

std::vector<Ipet::Sub> Ipet::plan_region(int root_instance, std::size_t region_size,
                                         const std::vector<std::vector<int>>& children,
                                         const std::vector<std::size_t>& subtree_nodes,
                                         const std::set<int>& exit_set) const {
  std::vector<Sub> subs;
  // Top-down over the instance tree, ascending ids: collapse the
  // largest eligible subtrees that still leave a meaningful region
  // around them; recurse past oversized or ineligible ones — and
  // re-enter planning *inside* every collapsed subtree, so nesting
  // continues until regions bottom out.
  std::vector<int> stack;
  const auto push_children = [&](int instance) {
    const auto& cs = children[static_cast<std::size_t>(instance)];
    for (auto it = cs.rbegin(); it != cs.rend(); ++it) stack.push_back(*it);
  };
  push_children(root_instance);
  while (!stack.empty()) {
    const int instance = stack.back();
    stack.pop_back();
    const std::size_t size = subtree_nodes[static_cast<std::size_t>(instance)];
    if (size < 8) continue; // sub-ILP overhead beats the saving
    if (size * 5 > region_size * 3) {
      push_children(instance);
      continue;
    }
    Sub sub;
    if (subtree_eligible(instance, children, exit_set, sub)) {
      sub.children =
          plan_region(instance, reachable_in(sub.nodes), children, subtree_nodes, exit_set);
      subs.push_back(std::move(sub));
    } else {
      push_children(instance);
    }
  }
  return subs;
}

bool Ipet::subtree_eligible(int instance, const std::vector<std::vector<int>>& children,
                            const std::set<int>& exit_set, Sub& sub) const {
  const cfg::Instance& inst = sg_.instances()[static_cast<std::size_t>(instance)];
  sub.instance = instance;
  sub.call_site = inst.call_site_node;
  if (sub.call_site < 0) return false;
  // Inside a loop the call edge count may exceed 1 and the collapse
  // stops being exact (the sub-ILP optimum is computed per single
  // entry).
  if (loops_.innermost_loop_of(sub.call_site) >= 0) return false;
  if (!values_.node_reachable(sub.call_site)) return false;
  sub.entry_node = sg_.instance_entry_node(instance);
  if (sub.entry_node < 0) return false;
  for (const int eid : sg_.node(sub.call_site).succ_edges) {
    const cfg::SgEdge& e = sg_.edge(eid);
    if (e.kind == cfg::EdgeKind::call && e.to == sub.entry_node) {
      sub.call_edge = eid;
      break;
    }
  }
  if (sub.call_edge < 0 || !values_.edge_feasible(sub.call_edge)) return false;

  std::vector<int> inst_stack{instance};
  while (!inst_stack.empty()) {
    const int i = inst_stack.back();
    inst_stack.pop_back();
    sub.nodes.insert(sub.nodes.end(), sg_.instance_nodes(i).begin(), sg_.instance_nodes(i).end());
    for (const int c : children[static_cast<std::size_t>(i)]) inst_stack.push_back(c);
  }
  std::sort(sub.nodes.begin(), sub.nodes.end());
  const auto member = [&](int node) {
    return std::binary_search(sub.nodes.begin(), sub.nodes.end(), node);
  };

  // Boundary and interior scan: the only inbound edge is the call edge;
  // every outbound edge is a ret edge of THIS instance onto one return
  // site; no task exit and no reachable dead end inside (either would
  // let flow end within the subtree, which the collapsed model cannot
  // express).
  for (const int node_id : sub.nodes) {
    if (exit_set.count(node_id) != 0) return false;
    const cfg::SgNode& node = sg_.node(node_id);
    bool any_feasible_out = false;
    for (const int eid : node.succ_edges) {
      const cfg::SgEdge& e = sg_.edge(eid);
      if (member(e.to)) {
        any_feasible_out = any_feasible_out || values_.edge_feasible(eid);
        continue;
      }
      if (e.kind != cfg::EdgeKind::ret || node.instance != instance) return false;
      if (sub.return_site < 0) {
        sub.return_site = e.to;
      } else if (sub.return_site != e.to) {
        return false;
      }
      sub.ret_edges.push_back(eid);
      any_feasible_out = any_feasible_out || values_.edge_feasible(eid);
    }
    for (const int eid : node.pred_edges) {
      if (!member(sg_.edge(eid).from) && eid != sub.call_edge) {
        return false;
      }
    }
    if (values_.node_reachable(node_id) && !any_feasible_out) return false;
  }
  return sub.return_site >= 0 && !sub.ret_edges.empty();
}

std::vector<char> Ipet::constrained_nodes(const IpetOptions& options) const {
  if (options.flow_caps.empty() && options.flow_ratios.empty() &&
      options.infeasible_pairs.empty() && options.excluded_addrs.empty()) {
    return {};
  }
  std::vector<char> pinned(sg_.nodes().size(), 0);
  const auto pin_addr = [&](std::uint32_t addr) {
    for (const int node_id : sg_.nodes_covering(addr)) {
      if (values_.node_reachable(node_id)) pinned[static_cast<std::size_t>(node_id)] = 1;
    }
  };
  for (const annot::FlowCapFact& cap : options.flow_caps) pin_addr(cap.addr);
  for (const annot::FlowRatioFact& ratio : options.flow_ratios) {
    pin_addr(ratio.addr);
    pin_addr(ratio.relative_to);
  }
  for (const annot::InfeasiblePairFact& pair : options.infeasible_pairs) {
    pin_addr(pair.a);
    pin_addr(pair.b);
  }
  for (const std::uint32_t addr : options.excluded_addrs) pin_addr(addr);
  return pinned;
}

std::vector<Ipet::Sub> Ipet::prune_pinned(std::vector<Sub> subs,
                                          const std::vector<char>& pinned) {
  std::vector<Sub> kept;
  for (Sub& sub : subs) {
    const bool touched = std::any_of(sub.nodes.begin(), sub.nodes.end(),
                                     [&](int n) { return pinned[static_cast<std::size_t>(n)] != 0; });
    // A fact inside a nested child pins the whole ancestor chain (the
    // child's member nodes are the ancestors' member nodes too), so the
    // recursion drops exactly the chain while unpinned siblings — and
    // unpinned children of a pinned parent — stay collapsed, promoted
    // into the surrounding region.
    std::vector<Sub> children = prune_pinned(std::move(sub.children), pinned);
    if (touched) {
      for (Sub& child : children) kept.push_back(std::move(child));
    } else {
      sub.children = std::move(children);
      kept.push_back(std::move(sub));
    }
  }
  return kept;
}

// ---------------------------------------------------------------------------
// Region ILP emission. One routine builds every problem: the monolithic
// whole-supergraph system (nodes == nullptr, top level), the outer
// problem of a decomposed solve (children collapsed to super-edge
// variables), and the sub-ILP of a collapsed subtree (virtual source at
// the callee entry, sinks at the ret edges).
//
// Node execution counts are NOT variables: flow conservation makes
//   x_n == sum of inbound flow (+1 at the virtual source),
// so each node contributes a single balance row
//   sum(in) [+ 1 if source] == sum(out) + sum(sinks)
// and every use of x_n (objective weights, persistence-miss caps, flow
// facts) substitutes the inbound sum. Compared to the classic
// two-rows-and-a-variable-per-node form this halves both the row count
// and the artificial-variable count — phase 1 of the exact simplex
// performs one pivot per artificial, so the substitution roughly halves
// path-analysis solve time while describing the *same* polytope
// projected onto the edge variables: every bound is bit-identical.
//
// The constraint system is sense-independent (persistence-miss rows are
// emitted for both senses: a miss variable is only bounded above, so
// the BCET/minimize optimum pins it to zero and the bound is unchanged)
// and both objective vectors are accumulated in one pass — that is what
// lets solve_ilp_pair share construction and phase-1 work between the
// WCET and BCET solves of a region.
// ---------------------------------------------------------------------------

struct Ipet::RegionBuild {
  IlpProblem ilp;
  std::vector<int> members; // the region's node ids, ascending
  IdIndex member_pos;       // node id -> position in members
  std::vector<int> edges;   // edges holding a variable, ascending
  IdIndex edge_var;         // edge id -> its variable (its position in edges)
  std::vector<std::pair<int, int>> child_calls; // (call edge, child index), ascending
  std::vector<Rational> obj_max; // internal maximize sense (WCET)
  std::vector<Rational> obj_min; // internal maximize sense (BCET: negated costs)
  Rational offset_max;           // virtual-source objective constants
  Rational offset_min;
  IpetResult early; // early-exit verdict carrier + missing-bound list

  bool in_region(int node) const { return member_pos[node] >= 0; }
};

int Ipet::append_in_flow(const RegionSpec& spec, const RegionBuild& build, int node_id,
                         const Rational& scale, std::vector<LinTerm>& terms) const {
  const cfg::SgNode& node = sg_.node(node_id);
  for (const int eid : node.pred_edges) {
    const int ev = build.edge_var[eid];
    if (ev >= 0) terms.push_back({ev, scale});
  }
  if (spec.children != nullptr) {
    // A collapsed child's flow re-emerges at its return site.
    for (const Sub& sub : *spec.children) {
      if (sub.return_site != node_id) continue;
      const int yv = build.edge_var[sub.call_edge];
      if (yv >= 0) terms.push_back({yv, scale});
    }
  }
  return node_id == spec.source_node ? 1 : 0;
}

bool Ipet::build_region(const RegionSpec& spec, const IpetOptions& options,
                        RegionBuild& build) const {
  IlpProblem& ilp = build.ilp;
  if (spec.nodes != nullptr) {
    build.members = *spec.nodes;
  } else {
    build.members.resize(sg_.nodes().size());
    for (std::size_t n = 0; n < build.members.size(); ++n) build.members[n] = static_cast<int>(n);
  }
  build.member_pos = IdIndex(build.members);
  const auto region_node = [&](int node) {
    return build.in_region(node) && values_.node_reachable(node);
  };

  // Collapsed-child lookups.
  std::vector<std::pair<int, int>> child_rets; // (ret edge, child index), ascending
  if (spec.children != nullptr) {
    for (std::size_t c = 0; c < spec.children->size(); ++c) {
      const Sub& sub = (*spec.children)[c];
      build.child_calls.push_back({sub.call_edge, static_cast<int>(c)});
      for (const int eid : sub.ret_edges) child_rets.push_back({eid, static_cast<int>(c)});
    }
    std::sort(build.child_calls.begin(), build.child_calls.end());
    std::sort(child_rets.begin(), child_rets.end());
  }
  const auto is_sink_edge = [&](int eid) {
    return spec.sink_ret_edges != nullptr &&
           std::find(spec.sink_ret_edges->begin(), spec.sink_ret_edges->end(), eid) !=
               spec.sink_ret_edges->end();
  };

  // Variables: one per feasible internal edge and one super-edge
  // variable per collapsed child (its call edge: the subtree's 0/1
  // entry count), in ascending edge id. Every such edge leaves a
  // region node or is a child's call edge. Sink and persistence-miss
  // variables follow.
  std::vector<int> candidates;
  for (const int n : build.members) {
    if (!values_.node_reachable(n)) continue;
    const std::vector<int>& out = sg_.node(n).succ_edges;
    candidates.insert(candidates.end(), out.begin(), out.end());
  }
  for (const auto& [eid, child] : build.child_calls) candidates.push_back(eid);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  for (const int eid : candidates) {
    const cfg::SgEdge& edge = sg_.edge(eid);
    if (lookup(build.child_calls, eid) >= 0 ||
        (values_.edge_feasible(eid) && region_node(edge.from) && region_node(edge.to))) {
      build.edges.push_back(eid);
    }
  }
  build.edge_var = IdIndex(build.edges);
  for (std::size_t i = 0; i < build.edges.size(); ++i) ilp.add_variable();

  const auto add_obj = [](std::vector<Rational>& obj, int var, const Rational& coeff) {
    if (obj.size() <= static_cast<std::size_t>(var)) {
      obj.resize(static_cast<std::size_t>(var) + 1);
    }
    obj[static_cast<std::size_t>(var)] += coeff;
  };

  // Balance rows with sinks at the task exits (top level) or the
  // subtree's ret edges, and the node weights folded onto the inbound
  // flow.
  std::vector<int> exit_vars;
  // Balance-row index per region member plus the owning node of every
  // sink variable: the flow-network shape the crash basis is built on.
  std::vector<int> balance_row(build.members.size(), -1);
  std::vector<std::pair<int, int>> sink_var_node; // (variable, node)
  {
    std::set<int> exit_set;
    if (spec.top_level) exit_set.insert(sg_.exit_nodes().begin(), sg_.exit_nodes().end());
    for (std::size_t pos = 0; pos < build.members.size(); ++pos) {
      const cfg::SgNode& node = sg_.node(build.members[pos]);
      if (!values_.node_reachable(node.id)) continue;
      balance_row[pos] = ilp.num_constraints();
      std::vector<LinTerm> terms;
      const int src = append_in_flow(spec, build, node.id, Rational(1), terms);
      const std::size_t in_count = terms.size();

      const NodeTiming& timing = pipeline_.timing(node.id);
      if (timing.ub != 0) {
        const Rational w(static_cast<std::int64_t>(timing.ub));
        for (std::size_t i = 0; i < in_count; ++i) add_obj(build.obj_max, terms[i].var, w);
        if (src != 0) build.offset_max += w;
      }
      if (timing.lb != 0) {
        const Rational w(-static_cast<std::int64_t>(timing.lb));
        for (std::size_t i = 0; i < in_count; ++i) add_obj(build.obj_min, terms[i].var, w);
        if (src != 0) build.offset_min += w;
      }

      bool made_sink = false;
      for (const int eid : node.succ_edges) {
        const int ev = build.edge_var[eid];
        if (ev >= 0) {
          terms.push_back({ev, Rational(-1)});
          continue;
        }
        if (is_sink_edge(eid) && values_.edge_feasible(eid)) {
          // Subtree ret edge: flow leaves the region here; the sink
          // variable carries the edge's extra cost (taken-branch
          // penalty convention) in the objective.
          const int sv = ilp.add_variable();
          exit_vars.push_back(sv);
          sink_var_node.push_back({sv, node.id});
          terms.push_back({sv, Rational(-1)});
          const unsigned extra = pipeline_.edge_extra(eid);
          if (extra != 0) {
            add_obj(build.obj_max, sv, Rational(static_cast<std::int64_t>(extra)));
            add_obj(build.obj_min, sv, Rational(-static_cast<std::int64_t>(extra)));
          }
          made_sink = true;
        }
      }
      if (spec.top_level && exit_set.count(node.id) != 0) {
        const int sv = ilp.add_variable();
        exit_vars.push_back(sv);
        sink_var_node.push_back({sv, node.id});
        terms.push_back({sv, Rational(-1)});
      } else if (!made_sink &&
                 std::all_of(node.succ_edges.begin(), node.succ_edges.end(),
                             [&](int eid) { return build.edge_var[eid] < 0; })) {
        // Dead end that is not an exit (e.g. unresolved indirect): treat
        // as a sink so the system stays feasible; the driver reports the
        // obstruction separately.
        const int sv = ilp.add_variable();
        exit_vars.push_back(sv);
        sink_var_node.push_back({sv, node.id});
        terms.push_back({sv, Rational(-1)});
      }
      ilp.add_constraint(std::move(terms), Cmp::eq, Rational(-src));
    }
    std::vector<LinTerm> sink_sum;
    sink_sum.reserve(exit_vars.size());
    for (const int sv : exit_vars) sink_sum.push_back({sv, Rational(1)});
    if (sink_sum.empty()) {
      // No reachable exit: no finite execution to bound.
      build.early.status = IpetResult::Status::infeasible;
      return false;
    }
    ilp.add_constraint(std::move(sink_sum), Cmp::eq, Rational(1));
    emit_crash_basis(spec, build, balance_row, sink_var_node, ilp.num_constraints() - 1);
  }

  // Loop entry terms of a region loop, substituting a collapsed child's
  // super-edge variable for its ret edges (their counts sum to y: every
  // ret edge targets the return site, so when that site lies in the
  // loop they all enter it) and detecting entries through the virtual
  // source of a sub-region.
  const auto loop_entry_terms = [&](const cfg::Loop& loop, bool& has_virtual_entry) {
    std::vector<LinTerm> terms;
    std::set<int> seen_children;
    has_virtual_entry = false;
    for (const int eid : loop.entry_edges) {
      const int ev = build.edge_var[eid];
      if (ev >= 0) {
        terms.push_back({ev, Rational(1)});
        continue;
      }
      const cfg::SgEdge& e = sg_.edge(eid);
      if (build.in_region(e.from)) continue; // infeasible or unreachable: no flow
      const int child = lookup(child_rets, eid);
      if (child >= 0) {
        if (seen_children.insert(child).second) {
          const int yv =
              build.edge_var[(*spec.children)[static_cast<std::size_t>(child)].call_edge];
          if (yv >= 0) terms.push_back({yv, Rational(1)});
        }
        continue;
      }
      if (!spec.top_level && e.to == spec.source_node) has_virtual_entry = true;
    }
    return terms;
  };

  // Loop bounds for loops that live in this region (loops never span a
  // collapsed boundary: a cycle through the subtree would have to pass
  // the call site, which eligibility requires to be loop-free), in
  // ascending loop id. The loops containing a node are its innermost
  // loop and that loop's ancestors, so each member's chain yields the
  // loops it heads.
  std::vector<int> region_loops;
  for (const int n : build.members) {
    for (int l = loops_.innermost_loop_of(n); l >= 0; l = loops_.loop(l).parent) {
      if (loops_.loop(l).header == n) region_loops.push_back(l);
    }
  }
  std::sort(region_loops.begin(), region_loops.end());
  for (const int loop_id : region_loops) {
    const cfg::Loop& loop = loops_.loop(loop_id);
    std::vector<LinTerm> back_terms;
    for (const int eid : loop.back_edges) {
      const int ev = build.edge_var[eid];
      if (ev >= 0) back_terms.push_back({ev, Rational(1)});
    }
    if (back_terms.empty()) continue; // cycle already broken by infeasibility
    bool has_virtual_entry = false;
    std::vector<LinTerm> entry_terms = loop_entry_terms(loop, has_virtual_entry);
    if (entry_terms.empty() && !has_virtual_entry) {
      // Unreachable loop: force its back edges to zero.
      ilp.add_constraint(std::move(back_terms), Cmp::le, Rational(0));
      continue;
    }
    const auto bound_it = options.loop_bounds.find(loop.id);
    if (bound_it == options.loop_bounds.end()) {
      build.early.loops_missing_bounds.push_back(loop.id);
      continue;
    }
    // sum(back) - B * sum(entry) <= B * virtual_entries
    const auto bound = static_cast<std::int64_t>(bound_it->second);
    std::vector<LinTerm> terms = std::move(back_terms);
    for (const LinTerm& t : entry_terms) terms.push_back({t.var, Rational(-bound)});
    ilp.add_constraint(std::move(terms), Cmp::le,
                       Rational(has_virtual_entry ? bound : 0));
  }

  // Design-level flow facts (Section 4.3), top level only: the
  // decomposition pins every subtree a fact touches into the outer
  // region, so the constrained counts are all expressible here.
  if (spec.top_level) {
    // Execution-count expression of every region node whose block
    // covers `addr`, scaled; flags whether any node was covered and
    // accumulates the virtual-source constant.
    const auto append_counts_at = [&](std::uint32_t addr, const Rational& scale,
                                      std::vector<LinTerm>& terms, Rational& constant) {
      bool covered = false;
      for (const int node_id : sg_.nodes_covering(addr)) {
        if (!region_node(node_id)) continue;
        covered = true;
        if (append_in_flow(spec, build, node_id, scale, terms) != 0) constant += scale;
      }
      return covered;
    };

    // Operating-mode / never-executed exclusions.
    for (const std::uint32_t addr : options.excluded_addrs) {
      std::vector<LinTerm> terms;
      Rational constant;
      if (append_counts_at(addr, Rational(1), terms, constant)) {
        ilp.add_constraint(std::move(terms), Cmp::le, -constant);
      }
    }

    // Absolute flow caps.
    for (const annot::FlowCapFact& cap : options.flow_caps) {
      std::vector<LinTerm> terms;
      Rational constant;
      if (append_counts_at(cap.addr, Rational(1), terms, constant)) {
        ilp.add_constraint(std::move(terms), Cmp::le,
                           Rational(static_cast<std::int64_t>(cap.max_count)) - constant);
      }
    }

    // Relative flow facts: count(a) <= f * count(b).
    for (const annot::FlowRatioFact& ratio : options.flow_ratios) {
      std::vector<LinTerm> terms;
      Rational constant;
      bool covered = append_counts_at(ratio.addr, Rational(1), terms, constant);
      covered |= append_counts_at(ratio.relative_to,
                                  Rational(-static_cast<std::int64_t>(ratio.factor)), terms,
                                  constant);
      if (covered) ilp.add_constraint(std::move(terms), Cmp::le, -constant);
    }

    // Infeasible pairs: big-M disjunction with a binary selector.
    const auto big_m = Rational(infeasible_pair_big_m);
    for (const annot::InfeasiblePairFact& pair : options.infeasible_pairs) {
      const int sel = ilp.add_variable();
      ilp.add_constraint({{sel, Rational(1)}}, Cmp::le, Rational(1));
      std::vector<LinTerm> a_terms;
      Rational a_const;
      std::vector<LinTerm> b_terms;
      Rational b_const;
      const bool a_covered = append_counts_at(pair.a, Rational(1), a_terms, a_const);
      const bool b_covered = append_counts_at(pair.b, Rational(1), b_terms, b_const);
      if (!a_covered || !b_covered) continue;
      // sum(a) <= M * sel
      a_terms.push_back({sel, -big_m});
      ilp.add_constraint(std::move(a_terms), Cmp::le, -a_const);
      // sum(b) <= M * (1 - sel)
      b_terms.push_back({sel, big_m});
      ilp.add_constraint(std::move(b_terms), Cmp::le, big_m - b_const);
    }
  }

  // Persistence-miss terms: misses are bounded by the node's executions
  // and by line_count per loop entry. Emitted for both senses (see the
  // header comment: the minimize optimum pins every miss to zero).
  for (const int node_id : build.members) {
    if (!values_.node_reachable(node_id)) continue;
    const NodeTiming& timing = pipeline_.timing(node_id);
    for (const PsTerm& ps : timing.ps_terms) {
      const cfg::Loop& loop = loops_.loop(ps.loop_id);
      const int mv = ilp.add_variable();
      // misses <= executions of the node
      std::vector<LinTerm> exec_terms;
      exec_terms.reserve(1 + sg_.node(node_id).pred_edges.size());
      exec_terms.push_back({mv, Rational(1)});
      const int src = append_in_flow(spec, build, node_id, Rational(-1), exec_terms);
      ilp.add_constraint(std::move(exec_terms), Cmp::le, Rational(src));
      // misses <= line_count * loop entries
      bool has_virtual_entry = false;
      const std::vector<LinTerm> entries = loop_entry_terms(loop, has_virtual_entry);
      const auto lc = static_cast<std::int64_t>(ps.line_count);
      std::vector<LinTerm> entry_terms;
      entry_terms.reserve(1 + entries.size());
      entry_terms.push_back({mv, Rational(1)});
      for (const LinTerm& t : entries) entry_terms.push_back({t.var, Rational(-lc)});
      ilp.add_constraint(std::move(entry_terms), Cmp::le,
                         Rational(has_virtual_entry ? lc : 0));
      add_obj(build.obj_max, mv, Rational(static_cast<std::int64_t>(ps.penalty)));
      add_obj(build.obj_min, mv, Rational(-static_cast<std::int64_t>(ps.penalty)));
    }
  }

  // Edge extra costs and collapsed-child objectives.
  for (std::size_t i = 0; i < build.edges.size(); ++i) {
    const int eid = build.edges[i];
    const int ev = static_cast<int>(i);
    const unsigned extra = pipeline_.edge_extra(eid);
    if (extra != 0) {
      add_obj(build.obj_max, ev, Rational(static_cast<std::int64_t>(extra)));
      add_obj(build.obj_min, ev, Rational(-static_cast<std::int64_t>(extra)));
    }
    const int child = lookup(build.child_calls, eid);
    if (child >= 0) {
      // Super edge: one unit of flow buys the subtree's optimal cost.
      const Sub& sub = (*spec.children)[static_cast<std::size_t>(child)];
      add_obj(build.obj_max, ev, sub.objective);
      add_obj(build.obj_min, ev, sub.objective_bcet);
    }
  }
  build.obj_max.resize(static_cast<std::size_t>(ilp.num_variables()));
  build.obj_min.resize(static_cast<std::size_t>(ilp.num_variables()));
  return true;
}

void Ipet::emit_crash_basis(const RegionSpec& spec, RegionBuild& build,
                            const std::vector<int>& balance_row,
                            const std::vector<std::pair<int, int>>& sink_var_node,
                            int sum_row) const {
  const auto row_of = [&](int node) {
    const int pos = build.member_pos[node];
    return pos < 0 ? -1 : balance_row[static_cast<std::size_t>(pos)];
  };
  if (spec.source_node < 0 || row_of(spec.source_node) < 0) return;

  // The equality rows are a flow network: one vertex per balance row
  // plus one for the sink-sum row, and every variable is an arc — an
  // edge variable runs from -> to, a collapsed child's super edge runs
  // call site -> return site, a sink variable runs node -> sink-sum. A
  // spanning forest of the network is a basis of the row space
  // (uncovered rows are each component's redundant row), and routing
  // the unit source flow down a back-edge-free tree path makes the
  // implied basic solution feasible for the flow rows: they hold
  // exactly, and every loop-bound slack stays nonnegative because no
  // back edge carries flow. Design-level fact rows (top level only) may
  // still cut the crash solution off; the solver gives each violated
  // inequality an artificial, so phase 1 repairs only those rows and a
  // region whose facts the unit path satisfies starts phase 2
  // immediately.
  struct Arc {
    int var = -1;
    int tail = -1;
    int head = -1;
    bool back = false; // loop back edge (or self arc): barred from the unit path
  };
  const int rows = sum_row + 1;
  // A back edge leaves a node of its loop, so its loop is on the chain
  // of loops containing the edge's source.
  const auto is_back_edge = [&](const cfg::SgEdge& edge) {
    for (int l = loops_.innermost_loop_of(edge.from); l >= 0; l = loops_.loop(l).parent) {
      const std::vector<int>& back = loops_.loop(l).back_edges;
      if (std::find(back.begin(), back.end(), edge.id) != back.end()) return true;
    }
    return false;
  };
  std::vector<Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(build.ilp.num_variables()));
  for (std::size_t i = 0; i < build.edges.size(); ++i) {
    const cfg::SgEdge& edge = sg_.edge(build.edges[i]);
    Arc arc;
    arc.var = static_cast<int>(i);
    const int child = lookup(build.child_calls, edge.id);
    if (child >= 0) {
      const Sub& sub = (*spec.children)[static_cast<std::size_t>(child)];
      arc.tail = row_of(sub.call_site);
      arc.head = row_of(sub.return_site);
    } else {
      arc.tail = row_of(edge.from);
      arc.head = row_of(edge.to);
    }
    if (arc.tail < 0 || arc.head < 0) return; // half-attached arc: no usable basis
    arc.back = arc.tail == arc.head || is_back_edge(edge);
    arcs.push_back(arc);
  }
  for (const auto& [sv, node] : sink_var_node) {
    const int tail = row_of(node);
    if (tail < 0) return;
    arcs.push_back({sv, tail, sum_row, false});
  }

  // Unit path: BFS from the source row to the sink-sum row along
  // forward arcs, skipping back edges (deterministic: arcs are visited
  // in emission order).
  std::vector<std::pair<int, int>> arcs_by_tail; // (tail row, arc)
  arcs_by_tail.reserve(arcs.size());
  for (std::size_t a = 0; a < arcs.size(); ++a) {
    arcs_by_tail.push_back({arcs[a].tail, static_cast<int>(a)});
  }
  const Adjacency<int> out(rows, arcs_by_tail);
  const int src_row = row_of(spec.source_node);
  std::vector<int> via_arc(static_cast<std::size_t>(rows), -1);
  std::vector<char> seen(static_cast<std::size_t>(rows), 0);
  std::vector<int> queue{src_row};
  seen[static_cast<std::size_t>(src_row)] = 1;
  for (std::size_t qi = 0; qi < queue.size() && seen[static_cast<std::size_t>(sum_row)] == 0;
       ++qi) {
    out.for_each(queue[qi], [&](int a) {
      if (arcs[static_cast<std::size_t>(a)].back) return true;
      const int to = arcs[static_cast<std::size_t>(a)].head;
      if (seen[static_cast<std::size_t>(to)] != 0) return true;
      seen[static_cast<std::size_t>(to)] = 1;
      via_arc[static_cast<std::size_t>(to)] = a;
      queue.push_back(to);
      return to != sum_row;
    });
  }
  // No back-edge-free route to an exit (e.g. flow trapped behind an
  // unstructured cycle): the crash solution would be infeasible, so
  // leave phase 1 in charge.
  if (seen[static_cast<std::size_t>(sum_row)] == 0) return;

  // Spanning forest: the path arcs first (they must be basic — they
  // carry the unit flow), then every other arc in emission order.
  std::vector<int> uf(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) uf[static_cast<std::size_t>(r)] = r;
  const auto find = [&](int r) {
    while (uf[static_cast<std::size_t>(r)] != r) {
      uf[static_cast<std::size_t>(r)] = uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(r)])];
      r = uf[static_cast<std::size_t>(r)];
    }
    return r;
  };
  std::vector<std::pair<int, std::pair<int, int>>> tree_ends; // (row, (arc var, other row))
  const auto add_tree_arc = [&](const Arc& arc) {
    const int ra = find(arc.tail);
    const int rb = find(arc.head);
    if (ra == rb) return;
    uf[static_cast<std::size_t>(ra)] = rb;
    tree_ends.push_back({arc.tail, {arc.var, arc.head}});
    tree_ends.push_back({arc.head, {arc.var, arc.tail}});
  };
  for (int r = sum_row; via_arc[static_cast<std::size_t>(r)] >= 0;
       r = arcs[static_cast<std::size_t>(via_arc[static_cast<std::size_t>(r)])].tail) {
    add_tree_arc(arcs[static_cast<std::size_t>(via_arc[static_cast<std::size_t>(r)])]);
  }
  for (const Arc& arc : arcs) add_tree_arc(arc);
  const Adjacency<std::pair<int, int>> adj(rows, tree_ends);

  // Root the sink-sum component at the sink-sum row and every other
  // component at its smallest row; each covered row's basic column is
  // the arc toward its parent. Emitting the hint children-before-
  // parents keeps every elimination's pivot cell at its original +/-1
  // (an arc column lives in exactly its two endpoint rows, and deeper
  // eliminations never touch it).
  std::vector<char> visited(static_cast<std::size_t>(rows), 0);
  std::vector<int> parent_arc(static_cast<std::size_t>(rows), -1);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(rows));
  const auto root_bfs = [&](int root) {
    visited[static_cast<std::size_t>(root)] = 1;
    const std::size_t start = order.size();
    order.push_back(root);
    for (std::size_t i = start; i < order.size(); ++i) {
      adj.for_each(order[i], [&](const std::pair<int, int>& end) {
        const auto [var, other] = end;
        if (visited[static_cast<std::size_t>(other)] == 0) {
          visited[static_cast<std::size_t>(other)] = 1;
          parent_arc[static_cast<std::size_t>(other)] = var;
          order.push_back(other);
        }
        return true;
      });
    }
  };
  root_bfs(sum_row);
  for (int r = 0; r < rows; ++r) {
    if (visited[static_cast<std::size_t>(r)] == 0) root_bfs(r);
  }
  std::vector<std::pair<int, int>> hint;
  hint.reserve(order.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (parent_arc[static_cast<std::size_t>(*it)] >= 0) {
      hint.push_back({*it, parent_arc[static_cast<std::size_t>(*it)]});
    }
  }
  if (!hint.empty()) build.ilp.set_basis_hint(std::move(hint));
}

IpetResult Ipet::extract_region(const RegionBuild& build, const RegionSpec& spec,
                                bool maximize, const LpSolution& solution,
                                Rational* objective_out,
                                std::map<int, std::uint64_t>* edge_counts_out) const {
  IpetResult result;
  result.loops_missing_bounds = build.early.loops_missing_bounds;
  result.variables = build.ilp.num_variables();
  result.constraints = build.ilp.num_constraints();
  result.phase1_pivots = solution.phase1_pivots;
  result.phase2_pivots = solution.phase2_pivots;
  result.crash_basis_rows = solution.crash_basis_rows;
  switch (solution.status) {
  case LpSolution::Status::optimal:
  case LpSolution::Status::degraded:
    break;
  case LpSolution::Status::infeasible:
    result.status = IpetResult::Status::infeasible;
    return result;
  case LpSolution::Status::unbounded:
    result.status = IpetResult::Status::unbounded;
    return result;
  case LpSolution::Status::node_limit:
    result.status = IpetResult::Status::node_limit;
    return result;
  case LpSolution::Status::pivot_limit:
    result.status = IpetResult::Status::pivot_limit;
    return result;
  }

  result.status = IpetResult::Status::ok;
  result.degraded = solution.status == LpSolution::Status::degraded;
  const Rational total = solution.objective + (maximize ? build.offset_max : build.offset_min);
  if (objective_out != nullptr) *objective_out = total;
  const Rational objective = maximize ? total : -total;
  result.bound = static_cast<std::uint64_t>(maximize ? objective.ceil64()
                                                     : objective.floor64());
  // A degraded solve proves only the bound: solution.values is empty,
  // so there is no flow to recover a witness from. The objective still
  // feeds the parent region soundly — an upper bound on the subtree's
  // internal-maximize optimum can only loosen the outer bound upward.
  if (result.degraded) return result;
  // Witness: recover the node counts from the inbound flow.
  std::vector<LinTerm> terms;
  for (const int node_id : build.members) {
    if (!values_.node_reachable(node_id)) continue;
    terms.clear();
    Rational count(append_in_flow(spec, build, node_id, Rational(1), terms));
    for (const LinTerm& t : terms) count += solution.values[static_cast<std::size_t>(t.var)];
    if (!count.is_zero()) {
      result.node_counts[node_id] = static_cast<std::uint64_t>(count.floor64());
    }
  }
  if (edge_counts_out != nullptr) {
    for (std::size_t ev = 0; ev < build.edges.size(); ++ev) {
      const Rational& count = solution.values[ev];
      if (!count.is_zero()) {
        (*edge_counts_out)[build.edges[ev]] = static_cast<std::uint64_t>(count.floor64());
      }
    }
  }
  return result;
}

std::pair<IpetResult, IpetResult> Ipet::solve_region_both(
    const RegionSpec& spec, const IpetOptions& options, Rational* objective_max_out,
    Rational* objective_min_out, std::map<int, std::uint64_t>* edge_counts_max_out,
    std::map<int, std::uint64_t>* edge_counts_min_out) const {
  RegionBuild build;
  if (!build_region(spec, options, build)) return {build.early, build.early};
  if (!build.early.loops_missing_bounds.empty()) {
    IpetResult result = std::move(build.early);
    result.status = IpetResult::Status::missing_loop_bounds;
    return {std::move(result), IpetResult{}};
  }
  for (int var = 0; var < build.ilp.num_variables(); ++var) {
    if (!build.obj_max[static_cast<std::size_t>(var)].is_zero()) {
      build.ilp.set_objective(var, build.obj_max[static_cast<std::size_t>(var)]);
    }
  }
  const auto [max_solution, min_solution] =
      build.ilp.solve_ilp_pair(build.obj_min, region_limits(options));
  std::pair<IpetResult, IpetResult> out = {
      extract_region(build, spec, true, max_solution, objective_max_out, edge_counts_max_out),
      extract_region(build, spec, false, min_solution, objective_min_out,
                     edge_counts_min_out)};
  if ((out.first.degraded || out.second.degraded) && options.governor != nullptr) {
    options.governor->record("path", "ilp budget",
                             "region solve truncated by pivot/node cap; bound is the best "
                             "proven frontier bound, no path witness (bound stays sound)");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Monolithic solve: the whole supergraph as one region, including every
// annotation-driven coupling constraint. Reference path for the
// decomposed modes and the fallback when no subtree is eligible.
// ---------------------------------------------------------------------------

std::pair<IpetResult, IpetResult> Ipet::solve_monolithic_both(const IpetOptions& options) const {
  RegionSpec spec;
  spec.source_node = sg_.entry_node();
  spec.top_level = true;
  return solve_region_both(spec, options, nullptr, nullptr, nullptr, nullptr);
}

} // namespace wcet::analysis
