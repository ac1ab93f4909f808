#include "cfg/supergraph.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>

#include "support/diag.hpp"

namespace wcet::cfg {

namespace {

struct Expander {
  const Program& program;
  const Supergraph::Options& options;
  std::vector<SgNode>& nodes;
  std::vector<SgEdge>& edges;
  std::vector<Instance>& instances;
  std::vector<std::vector<int>>& instance_nodes;
  std::vector<int>& instance_entry;
  std::vector<SupergraphIssue>& issues;
  std::vector<std::uint32_t> call_path; // function entries on the DFS path

  int add_edge(int from, int to, EdgeKind kind) {
    const int id = static_cast<int>(edges.size());
    edges.push_back(SgEdge{id, from, to, kind});
    nodes[static_cast<std::size_t>(from)].succ_edges.push_back(id);
    nodes[static_cast<std::size_t>(to)].pred_edges.push_back(id);
    return id;
  }

  unsigned depth_limit(std::uint32_t fn_entry) const {
    const auto it = options.recursion_depths.find(fn_entry);
    // Depth 1 == "appears once on the path" == non-recursive behaviour.
    return it == options.recursion_depths.end() ? 1 : std::max(1u, it->second);
  }

  // Node of the block starting at `addr` in `instance`, -1 if none. An
  // instance's nodes are contiguous and ascend by block address.
  int node_at(int instance, std::uint32_t addr) const {
    const std::vector<int>& range = instance_nodes[static_cast<std::size_t>(instance)];
    const auto it = std::lower_bound(range.begin(), range.end(), addr, [&](int n, std::uint32_t a) {
      return nodes[static_cast<std::size_t>(n)].block->begin < a;
    });
    return it != range.end() && nodes[static_cast<std::size_t>(*it)].block->begin == addr ? *it
                                                                                           : -1;
  }

  // Expand `fn_entry`; returns its instance id.
  int expand_function(std::uint32_t fn_entry, int caller_instance, int call_site_node) {
    if (nodes.size() > options.max_nodes) {
      throw AnalysisError("supergraph exceeds node limit (context explosion)");
    }
    const CfgFunction& fn = program.function_at(fn_entry);
    const int instance_id = static_cast<int>(instances.size());
    instances.push_back(Instance{instance_id, fn_entry, caller_instance, call_site_node});
    call_path.push_back(fn_entry);

    // Create one node per block of this instance.
    std::vector<int>& range = instance_nodes.emplace_back();
    range.reserve(fn.blocks.size());
    for (const auto& [addr, block] : fn.blocks) {
      const int id = static_cast<int>(nodes.size());
      nodes.push_back(SgNode{id, instance_id, fn_entry, &block, {}, {}});
      range.push_back(id);
    }
    const int entry_node = node_at(instance_id, fn_entry);
    if (entry_node < 0) {
      std::ostringstream os;
      os << "function entry 0x" << std::hex << fn_entry << " was not decoded";
      throw AnalysisError(os.str());
    }
    instance_entry.push_back(entry_node);

    // Intra edges + call expansion.
    int from = instance_nodes[static_cast<std::size_t>(instance_id)].front();
    for (const auto& [addr, block] : fn.blocks) {
      switch (block.term) {
      case Term::branch: {
        WCET_CHECK(block.succs.size() == 2, "branch block needs 2 successors");
        if (const int to = node_at(instance_id, block.succs[0]); to >= 0) {
          add_edge(from, to, EdgeKind::fall);
        }
        if (const int to = node_at(instance_id, block.succs[1]); to >= 0) {
          add_edge(from, to, EdgeKind::taken);
        }
        break;
      }
      case Term::fallthrough:
      case Term::ecall:
        for (const std::uint32_t succ : block.succs) {
          if (const int to = node_at(instance_id, succ); to >= 0) {
            add_edge(from, to, EdgeKind::fall);
          }
        }
        break;
      case Term::jump:
      case Term::indirect_jump:
        for (const std::uint32_t succ : block.succs) {
          if (const int to = node_at(instance_id, succ); to >= 0) {
            add_edge(from, to, EdgeKind::taken);
          }
        }
        if (block.indirect_unresolved) {
          issues.push_back({block.term_pc(), "unresolved indirect jump in expanded graph"});
        }
        break;
      case Term::call:
      case Term::indirect_call: {
        WCET_CHECK(block.succs.size() == 1, "call block needs a return site");
        const int return_site = node_at(instance_id, block.succs[0]);
        if (block.indirect_unresolved) {
          issues.push_back({block.term_pc(), "unresolved indirect call in expanded graph"});
        }
        bool any_callee = false;
        for (const std::uint32_t callee : block.callees) {
          const unsigned occurrences = static_cast<unsigned>(
              std::count(call_path.begin(), call_path.end(), callee));
          if (occurrences >= depth_limit(callee)) {
            if (depth_limit(callee) == 1 &&
                options.recursion_depths.count(callee) == 0) {
              issues.push_back(
                  {block.term_pc(),
                   "recursive call without a recursion-depth annotation"});
            }
            // Cut: model the too-deep call as a no-op transfer to the
            // return site (sound under the user's depth assertion).
            if (return_site >= 0) add_edge(from, return_site, EdgeKind::cut);
            continue;
          }
          any_callee = true;
          const int callee_instance = expand_function(callee, instance_id, from);
          add_edge(from, instance_entry[static_cast<std::size_t>(callee_instance)],
                   EdgeKind::call);
          // Wire every return block of the callee back to the site, in
          // block order.
          if (return_site < 0) continue;
          for (const int n : instance_nodes[static_cast<std::size_t>(callee_instance)]) {
            if (nodes[static_cast<std::size_t>(n)].block->term == Term::ret) {
              add_edge(n, return_site, EdgeKind::ret);
            }
          }
        }
        if (!any_callee && block.callees.empty() && return_site >= 0) {
          // Unresolved call: conservatively continue at the return site
          // (cost of the callee is unknown — the driver refuses to emit
          // a bound when issues are present).
          add_edge(from, return_site, EdgeKind::cut);
        }
        break;
      }
      case Term::ret:
      case Term::halt:
        break;
      }
      ++from;
    }
    call_path.pop_back();
    return instance_id;
  }
};

} // namespace

Supergraph Supergraph::expand(const Program& program, const Options& options) {
  Supergraph sg;
  sg.program_ = &program;
  Expander expander{program,           options,           sg.nodes_,  sg.edges_, sg.instances_,
                    sg.instance_nodes_, sg.instance_entry_, sg.issues_, {}};
  const int root_instance = expander.expand_function(program.entry(), -1, -1);
  sg.entry_node_ = sg.instance_entry_[static_cast<std::size_t>(root_instance)];
  for (const SgNode& node : sg.nodes_) {
    const bool root_ret =
        node.instance == root_instance && node.block->term == Term::ret;
    const bool halts = node.block->term == Term::halt;
    // ecall blocks may terminate the task (EcallFn::exit).
    const bool may_exit = node.block->term == Term::ecall;
    if (root_ret || halts || may_exit) sg.exit_nodes_.push_back(node.id);
  }
  return sg;
}

std::vector<int> Supergraph::instance_topo_order() const {
  // DFS expansion assigns ids caller-first, so id order is topological;
  // verified here so the invariant cannot silently rot.
  std::vector<int> order(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    WCET_CHECK(instances_[i].caller_instance < static_cast<int>(i),
               "instance ids must be caller-before-callee");
    order[i] = static_cast<int>(i);
  }
  return order;
}

std::vector<int> Supergraph::nodes_covering(std::uint32_t addr) const {
  std::vector<int> covering;
  for (const SgNode& node : nodes_) {
    if (addr >= node.block->begin && addr < node.block->end) covering.push_back(node.id);
  }
  return covering;
}

std::string Supergraph::context_of(int node_id) const {
  // The call chain is walked callee first, so the text is sized in one
  // pass and filled from the back in a second.
  const SgNode& node = nodes_[static_cast<std::size_t>(node_id)];
  const auto name_of = [&](int instance) -> const std::string& {
    return program_->function_at(instances_[static_cast<std::size_t>(instance)].fn_entry).name;
  };
  const auto caller_of = [&](int instance) {
    return instances_[static_cast<std::size_t>(instance)].caller_instance;
  };
  char hex[8];
  const auto [hex_end, ec] = std::to_chars(hex, hex + sizeof hex, node.block->begin, 16);
  (void)ec;
  const auto hex_len = static_cast<std::size_t>(hex_end - hex);
  constexpr std::string_view arrow = " -> ";
  std::size_t length = 4 + hex_len + 1; // " [0x" hex ")"
  for (int i = node.instance; i >= 0; i = caller_of(i)) {
    length += name_of(i).size() + (caller_of(i) >= 0 ? arrow.size() : 0);
  }
  std::string text(length, ' ');
  std::size_t at = length - 1 - hex_len - 4;
  text.replace(at, 4, " [0x");
  text.replace(at + 4, hex_len, hex, hex_len);
  text.back() = ')';
  for (int i = node.instance; i >= 0; i = caller_of(i)) {
    const std::string& name = name_of(i);
    at -= name.size();
    text.replace(at, name.size(), name);
    if (caller_of(i) >= 0) {
      at -= arrow.size();
      text.replace(at, arrow.size(), arrow);
    }
  }
  return text;
}

std::string Supergraph::dump() const {
  std::ostringstream os;
  for (const SgNode& node : nodes_) {
    os << 'n' << node.id << ' ' << context_of(node.id) << " ->";
    for (const int e : node.succ_edges) {
      os << ' ' << 'n' << edges_[static_cast<std::size_t>(e)].to;
    }
    os << '\n';
  }
  return os.str();
}

} // namespace wcet::cfg
