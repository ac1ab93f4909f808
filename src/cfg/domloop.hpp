// Dominator tree and loop forest over the supergraph.
//
// The loop forest is computed by nested strongly-connected-component
// decomposition, which — unlike natural-loop detection — identifies
// *irreducible* loops (multiple-entry cycles) instead of silently
// mis-handling them. Irreducibility is the property the paper ties to
// rules 14.4 (goto), 16.2 (recursion) and 20.7 (setjmp/longjmp): no
// automatic loop-bound analysis, no virtual unrolling (Section 4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "cfg/supergraph.hpp"

namespace wcet::cfg {

// Reverse postorder of the nodes reachable from the supergraph entry:
// predecessors before successors except along back edges. It is not a
// weak topological order: when a branch's first successor is a loop
// body, the code after the loop comes before the body. Shared by the
// dominator computation and the fixpoint schedule, which the round
// engine (support/instance_rounds.hpp) turns into a loop-nest order.
std::vector<int> reverse_postorder(const Supergraph& sg);

// Per-node scheduling priority for support/fixpoint.hpp: the node's
// index in `rpo` (Dominators::rpo); unreachable nodes are bucketed last.
std::vector<int> rpo_priorities(const Supergraph& sg, const std::vector<int>& rpo);

class Dominators {
public:
  explicit Dominators(const Supergraph& sg);

  bool reachable(int node) const { return reachable_[static_cast<std::size_t>(node)]; }
  bool dominates(int a, int b) const;
  // Reverse postorder of reachable nodes.
  const std::vector<int>& rpo() const { return rpo_; }

private:
  std::vector<int> idom_;
  std::vector<bool> reachable_;
  std::vector<int> rpo_;
  std::vector<int> rpo_index_;
};

struct Loop {
  int id = -1;
  int header = -1;            // representative entry node
  bool irreducible = false;   // more than one entry node
  std::vector<int> nodes;     // all member nodes (includes nested loops)
  std::vector<int> entries;   // member nodes with predecessors outside
  std::vector<int> entry_edges; // edges from outside into an entry node
  std::vector<int> back_edges;  // edges from inside onto an entry node
  std::vector<int> exit_edges;  // edges from inside to outside
  int parent = -1;
  std::vector<int> children;
  int depth = 0; // 0 == outermost
};

class LoopForest {
public:
  explicit LoopForest(const Supergraph& sg);

  const std::vector<Loop>& loops() const { return loops_; }
  const Loop& loop(int id) const { return loops_[static_cast<std::size_t>(id)]; }
  // Innermost loop containing `node`, -1 if none.
  int innermost_loop_of(int node) const { return loop_of_[static_cast<std::size_t>(node)]; }
  bool loop_contains(int loop_id, int node) const;
  bool has_irreducible_loops() const;

  // Discovery scratch shared by every loop (defined in domloop.cpp).
  struct Scratch;

private:
  void discover(const Supergraph& sg, const std::vector<int>& universe, int parent,
                Scratch& scratch);

  std::vector<Loop> loops_;
  std::vector<int> loop_of_;
  std::vector<std::vector<bool>> membership_; // loop id -> node bitmap
};

} // namespace wcet::cfg
