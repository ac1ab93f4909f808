#include "cfg/domloop.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace wcet::cfg {

std::vector<int> reverse_postorder(const Supergraph& sg) {
  const std::size_t n = sg.nodes().size();
  std::vector<bool> visited(n, false);
  std::vector<int> postorder;
  postorder.reserve(n);
  std::vector<std::pair<int, std::size_t>> stack;
  stack.emplace_back(sg.entry_node(), 0);
  visited[static_cast<std::size_t>(sg.entry_node())] = true;
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    const auto& succs = sg.node(node).succ_edges;
    if (child < succs.size()) {
      const int next = sg.edge(succs[child]).to;
      ++child;
      if (!visited[static_cast<std::size_t>(next)]) {
        visited[static_cast<std::size_t>(next)] = true;
        stack.emplace_back(next, 0);
      }
    } else {
      postorder.push_back(node);
      stack.pop_back();
    }
  }
  return {postorder.rbegin(), postorder.rend()};
}

std::vector<int> rpo_priorities(const Supergraph& sg, const std::vector<int>& rpo) {
  std::vector<int> priority(sg.nodes().size(), static_cast<int>(sg.nodes().size()));
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    priority[static_cast<std::size_t>(rpo[i])] = static_cast<int>(i);
  }
  return priority;
}

Dominators::Dominators(const Supergraph& sg) {
  const std::size_t n = sg.nodes().size();
  idom_.assign(n, -1);
  reachable_.assign(n, false);
  rpo_index_.assign(n, -1);

  rpo_ = reverse_postorder(sg);
  for (std::size_t i = 0; i < rpo_.size(); ++i) {
    reachable_[static_cast<std::size_t>(rpo_[i])] = true;
    rpo_index_[static_cast<std::size_t>(rpo_[i])] = static_cast<int>(i);
  }

  // Cooper–Harvey–Kennedy iterative dominators.
  const auto intersect = [&](int a, int b) {
    while (a != b) {
      while (rpo_index_[static_cast<std::size_t>(a)] > rpo_index_[static_cast<std::size_t>(b)]) {
        a = idom_[static_cast<std::size_t>(a)];
      }
      while (rpo_index_[static_cast<std::size_t>(b)] > rpo_index_[static_cast<std::size_t>(a)]) {
        b = idom_[static_cast<std::size_t>(b)];
      }
    }
    return a;
  };
  idom_[static_cast<std::size_t>(sg.entry_node())] = sg.entry_node();
  bool changed = true;
  while (changed) {
    changed = false;
    for (const int node : rpo_) {
      if (node == sg.entry_node()) continue;
      int new_idom = -1;
      for (const int e : sg.node(node).pred_edges) {
        const int pred = sg.edge(e).from;
        if (!reachable_[static_cast<std::size_t>(pred)]) continue;
        if (idom_[static_cast<std::size_t>(pred)] < 0) continue;
        new_idom = new_idom < 0 ? pred : intersect(new_idom, pred);
      }
      if (new_idom >= 0 && idom_[static_cast<std::size_t>(node)] != new_idom) {
        idom_[static_cast<std::size_t>(node)] = new_idom;
        changed = true;
      }
    }
  }
  // Entry's idom is conventionally -1 externally.
  idom_[static_cast<std::size_t>(sg.entry_node())] = -1;
}

bool Dominators::dominates(int a, int b) const {
  int walk = b;
  while (walk >= 0) {
    if (walk == a) return true;
    walk = idom_[static_cast<std::size_t>(walk)];
  }
  return false;
}

namespace {

// Tarjan SCC restricted to a node universe and enabled edges.
std::vector<std::vector<int>> sccs_of(const Supergraph& sg, const std::vector<int>& universe,
                                      const std::vector<bool>& edge_enabled) {
  const std::size_t n = sg.nodes().size();
  std::vector<bool> in_universe(n, false);
  for (const int v : universe) in_universe[static_cast<std::size_t>(v)] = true;

  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  std::vector<std::vector<int>> result;
  int counter = 0;

  struct Frame {
    int node;
    std::size_t child = 0;
  };
  for (const int root : universe) {
    if (index[static_cast<std::size_t>(root)] >= 0) continue;
    std::vector<Frame> frames{{root, 0}};
    index[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = counter++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto& succs = sg.node(frame.node).succ_edges;
      bool descended = false;
      while (frame.child < succs.size()) {
        const int eid = succs[frame.child++];
        if (!edge_enabled[static_cast<std::size_t>(eid)]) continue;
        const int next = sg.edge(eid).to;
        if (!in_universe[static_cast<std::size_t>(next)]) continue;
        if (index[static_cast<std::size_t>(next)] < 0) {
          index[static_cast<std::size_t>(next)] = low[static_cast<std::size_t>(next)] = counter++;
          stack.push_back(next);
          on_stack[static_cast<std::size_t>(next)] = true;
          frames.push_back({next, 0});
          descended = true;
          break;
        }
        if (on_stack[static_cast<std::size_t>(next)]) {
          low[static_cast<std::size_t>(frame.node)] =
              std::min(low[static_cast<std::size_t>(frame.node)], index[static_cast<std::size_t>(next)]);
        }
      }
      if (descended) continue;
      if (low[static_cast<std::size_t>(frame.node)] == index[static_cast<std::size_t>(frame.node)]) {
        std::vector<int> scc;
        for (;;) {
          const int member = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(member)] = false;
          scc.push_back(member);
          if (member == frame.node) break;
        }
        result.push_back(std::move(scc));
      }
      const int done = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[static_cast<std::size_t>(frames.back().node)] =
            std::min(low[static_cast<std::size_t>(frames.back().node)],
                     low[static_cast<std::size_t>(done)]);
      }
    }
  }
  return result;
}

bool has_self_edge(const Supergraph& sg, int node, const std::vector<bool>& edge_enabled) {
  for (const int e : sg.node(node).succ_edges) {
    if (edge_enabled[static_cast<std::size_t>(e)] && sg.edge(e).to == node) return true;
  }
  return false;
}

} // namespace

LoopForest::LoopForest(const Supergraph& sg) {
  loop_of_.assign(sg.nodes().size(), -1);
  std::vector<int> universe;
  universe.reserve(sg.nodes().size());
  for (const SgNode& node : sg.nodes()) universe.push_back(node.id);
  std::vector<bool> edge_enabled(sg.edges().size(), true);
  discover(sg, universe, edge_enabled, -1);
  // Compute depths.
  for (Loop& loop : loops_) {
    int depth = 0;
    for (int p = loop.parent; p >= 0; p = loops_[static_cast<std::size_t>(p)].parent) ++depth;
    loop.depth = depth;
  }
}

void LoopForest::discover(const Supergraph& sg, const std::vector<int>& universe,
                          const std::vector<bool>& edge_enabled, int parent) {
  const auto sccs = sccs_of(sg, universe, edge_enabled);
  for (const auto& scc : sccs) {
    const bool trivial = scc.size() == 1 && !has_self_edge(sg, scc[0], edge_enabled);
    if (trivial) continue;

    std::vector<bool> in_scc(sg.nodes().size(), false);
    for (const int v : scc) in_scc[static_cast<std::size_t>(v)] = true;

    Loop loop;
    loop.id = static_cast<int>(loops_.size());
    loop.parent = parent;
    loop.nodes = scc;
    std::sort(loop.nodes.begin(), loop.nodes.end());

    // Entries: scc nodes with a predecessor outside the scc (within the
    // current universe view, edges as currently enabled).
    for (const int v : loop.nodes) {
      bool is_entry = false;
      for (const int e : sg.node(v).pred_edges) {
        if (!edge_enabled[static_cast<std::size_t>(e)]) continue;
        if (!in_scc[static_cast<std::size_t>(sg.edge(e).from)]) {
          is_entry = true;
          loop.entry_edges.push_back(e);
        }
      }
      if (is_entry) loop.entries.push_back(v);
    }
    if (loop.entries.empty()) {
      // Unreachable cycle (no external predecessor) — pick the smallest
      // node as a synthetic header; IPET will assign it count zero.
      loop.entries.push_back(loop.nodes.front());
    }
    loop.irreducible = loop.entries.size() > 1;
    loop.header = loop.entries.front();

    std::vector<bool> is_entry_node(sg.nodes().size(), false);
    for (const int v : loop.entries) is_entry_node[static_cast<std::size_t>(v)] = true;

    // Back edges (inside -> entry) and exit edges (inside -> outside).
    std::vector<bool> next_enabled = edge_enabled;
    for (const int v : loop.nodes) {
      for (const int e : sg.node(v).succ_edges) {
        if (!edge_enabled[static_cast<std::size_t>(e)]) continue;
        const int to = sg.edge(e).to;
        if (in_scc[static_cast<std::size_t>(to)]) {
          if (is_entry_node[static_cast<std::size_t>(to)]) {
            loop.back_edges.push_back(e);
            next_enabled[static_cast<std::size_t>(e)] = false; // sever for nesting
          }
        } else {
          loop.exit_edges.push_back(e);
        }
      }
    }

    const int loop_id = loop.id;
    // Overwrite unconditionally: recursion visits outer loops first, so
    // the last writer is the innermost loop.
    for (const int v : loop.nodes) {
      loop_of_[static_cast<std::size_t>(v)] = loop_id;
    }
    membership_.push_back(std::vector<bool>(sg.nodes().size(), false));
    for (const int v : loop.nodes) membership_.back()[static_cast<std::size_t>(v)] = true;
    loops_.push_back(std::move(loop));

    // Recurse into the body with the severed back edges: nested loops.
    discover(sg, loops_[static_cast<std::size_t>(loop_id)].nodes, next_enabled, loop_id);
    if (parent < 0) {
      // fixup children lists lazily below
    }
  }
  // Wire children lists (single pass at the end of each level).
  for (Loop& loop : loops_) {
    loop.children.clear();
  }
  for (const Loop& loop : loops_) {
    if (loop.parent >= 0) {
      loops_[static_cast<std::size_t>(loop.parent)].children.push_back(loop.id);
    }
  }
}

bool LoopForest::loop_contains(int loop_id, int node) const {
  return membership_[static_cast<std::size_t>(loop_id)][static_cast<std::size_t>(node)];
}

bool LoopForest::has_irreducible_loops() const {
  return std::any_of(loops_.begin(), loops_.end(),
                     [](const Loop& l) { return l.irreducible; });
}

} // namespace wcet::cfg
