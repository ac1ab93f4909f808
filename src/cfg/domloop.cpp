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

// v[i] for a node or edge id.
template <typename Vec>
auto& at(Vec& v, int i) {
  return v[static_cast<std::size_t>(i)];
}

} // namespace

// Scratch shared by every level of the loop discovery: Tarjan's
// per-node state and the per-loop marks, each reset on the nodes it
// touched before its next use, and the edge mask, whose back edges are
// severed in place. A severed edge lies inside its loop, so no other
// loop of the same level sees it.
struct LoopForest::Scratch {
  explicit Scratch(const Supergraph& sg)
      : index(sg.nodes().size(), -1), low(sg.nodes().size(), 0),
        on_stack(sg.nodes().size(), 0), in_universe(sg.nodes().size(), 0),
        in_scc(sg.nodes().size(), 0), is_entry(sg.nodes().size(), 0),
        edge_enabled(sg.edges().size(), 1) {}

  struct Frame {
    int node;
    std::size_t child = 0;
  };
  std::vector<int> index, low;
  std::vector<char> on_stack, in_universe, in_scc, is_entry;
  std::vector<char> edge_enabled;
  std::vector<int> stack;
  std::vector<Frame> frames;
};

namespace {

// Tarjan SCC restricted to a node universe and the enabled edges.
std::vector<std::vector<int>> sccs_of(const Supergraph& sg, const std::vector<int>& universe,
                                      LoopForest::Scratch& s) {
  for (const int v : universe) at(s.in_universe, v) = 1;

  std::vector<std::vector<int>> result;
  int counter = 0;
  for (const int root : universe) {
    if (at(s.index, root) >= 0) continue;
    s.frames.push_back({root, 0});
    at(s.index, root) = at(s.low, root) = counter++;
    s.stack.push_back(root);
    at(s.on_stack, root) = 1;
    while (!s.frames.empty()) {
      LoopForest::Scratch::Frame& frame = s.frames.back();
      const auto& succs = sg.node(frame.node).succ_edges;
      bool descended = false;
      while (frame.child < succs.size()) {
        const int eid = succs[frame.child++];
        if (!at(s.edge_enabled, eid)) continue;
        const int next = sg.edge(eid).to;
        if (!at(s.in_universe, next)) continue;
        if (at(s.index, next) < 0) {
          at(s.index, next) = at(s.low, next) = counter++;
          s.stack.push_back(next);
          at(s.on_stack, next) = 1;
          s.frames.push_back({next, 0});
          descended = true;
          break;
        }
        if (at(s.on_stack, next)) {
          at(s.low, frame.node) = std::min(at(s.low, frame.node), at(s.index, next));
        }
      }
      if (descended) continue;
      if (at(s.low, frame.node) == at(s.index, frame.node)) {
        std::vector<int> scc;
        for (;;) {
          const int member = s.stack.back();
          s.stack.pop_back();
          at(s.on_stack, member) = 0;
          scc.push_back(member);
          if (member == frame.node) break;
        }
        result.push_back(std::move(scc));
      }
      const int done = frame.node;
      s.frames.pop_back();
      if (!s.frames.empty()) {
        at(s.low, s.frames.back().node) = std::min(at(s.low, s.frames.back().node), at(s.low, done));
      }
    }
  }
  for (const int v : universe) {
    at(s.in_universe, v) = 0;
    at(s.index, v) = -1;
  }
  return result;
}

bool has_self_edge(const Supergraph& sg, int node, const std::vector<char>& edge_enabled) {
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
  Scratch scratch(sg);
  discover(sg, universe, -1, scratch);
  for (const Loop& loop : loops_) {
    if (loop.parent >= 0) {
      loops_[static_cast<std::size_t>(loop.parent)].children.push_back(loop.id);
    }
  }
  // Compute depths.
  for (Loop& loop : loops_) {
    int depth = 0;
    for (int p = loop.parent; p >= 0; p = loops_[static_cast<std::size_t>(p)].parent) ++depth;
    loop.depth = depth;
  }
}

// `universe` is read only by sccs_of, before this call adds a loop: a
// recursive call's universe is a loop's node list, which growing
// `loops_` moves.
void LoopForest::discover(const Supergraph& sg, const std::vector<int>& universe, int parent,
                          Scratch& scratch) {
  const auto sccs = sccs_of(sg, universe, scratch);
  for (const auto& scc : sccs) {
    const bool trivial = scc.size() == 1 && !has_self_edge(sg, scc[0], scratch.edge_enabled);
    if (trivial) continue;

    for (const int v : scc) at(scratch.in_scc, v) = 1;

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
        if (!at(scratch.edge_enabled, e)) continue;
        if (!at(scratch.in_scc, sg.edge(e).from)) {
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

    for (const int v : loop.entries) at(scratch.is_entry, v) = 1;

    // Back edges (inside -> entry) and exit edges (inside -> outside).
    // Each edge is read once, so severing a back edge as it is found
    // leaves the rest of this scan unchanged.
    for (const int v : loop.nodes) {
      for (const int e : sg.node(v).succ_edges) {
        if (!at(scratch.edge_enabled, e)) continue;
        const int to = sg.edge(e).to;
        if (at(scratch.in_scc, to)) {
          if (at(scratch.is_entry, to)) {
            loop.back_edges.push_back(e);
            at(scratch.edge_enabled, e) = 0; // sever for nesting
          }
        } else {
          loop.exit_edges.push_back(e);
        }
      }
    }
    for (const int v : loop.nodes) at(scratch.in_scc, v) = 0;
    for (const int v : loop.entries) at(scratch.is_entry, v) = 0;

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
    discover(sg, loops_[static_cast<std::size_t>(loop_id)].nodes, loop_id, scratch);
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
