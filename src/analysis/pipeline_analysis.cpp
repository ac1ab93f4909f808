#include "analysis/pipeline_analysis.hpp"

#include "support/diag.hpp"

namespace wcet::analysis {

using isa::Inst;
using isa::Opcode;

PipelineAnalysis::PipelineAnalysis(const cfg::Supergraph& sg, const ValueAnalysis& values,
                                   const CacheAnalysis& caches, const mem::HwConfig& hw)
    : sg_(sg), values_(values), caches_(caches), hw_(hw) {
  timings_.resize(sg.nodes().size());
  edge_extra_.assign(sg.edges().size(), 0);
}

void PipelineAnalysis::run(const PipelineAnalysis* prev, const std::vector<char>* node_clean) {
  // Unlike the value/cache phases, block timing is a single pass with
  // no inter-node state (tiny32 is in-order with additive costs), so it
  // does not ride the fixpoint engine: per-node results are
  // order-independent and a plain id-order sweep is the fastest
  // deterministic traversal.
  const bool adopting = prev != nullptr && node_clean != nullptr &&
                        node_clean->size() == timings_.size() &&
                        prev->timings_.size() == timings_.size() &&
                        prev->edge_extra_.size() == edge_extra_.size();
  const auto clean = [&](int node) {
    return adopting && (*node_clean)[static_cast<std::size_t>(node)] != 0;
  };
  adopted_timings_ = 0;
  for (const cfg::SgNode& node : sg_.nodes()) {
    if (clean(node.id) && caches_.rows_adopted(node.id)) {
      timings_[static_cast<std::size_t>(node.id)] =
          prev->timings_[static_cast<std::size_t>(node.id)];
      ++adopted_timings_;
      continue;
    }
    compute_node_timing(node.id);
  }

  for (const cfg::SgEdge& edge : sg_.edges()) {
    if (clean(edge.from)) {
      edge_extra_[static_cast<std::size_t>(edge.id)] =
          prev->edge_extra_[static_cast<std::size_t>(edge.id)];
      continue;
    }
    const cfg::SgNode& from = sg_.node(edge.from);
    if (from.block->term == cfg::Term::branch && edge.kind == cfg::EdgeKind::taken) {
      edge_extra_[static_cast<std::size_t>(edge.id)] = hw_.pipeline.branch_taken_penalty;
    }
  }
}

void PipelineAnalysis::compute_node_timing(int node_id) {
  const cfg::SgNode& node = sg_.node(node_id);
  NodeTiming& timing = timings_[static_cast<std::size_t>(node.id)];
  timing = NodeTiming{};
  if (!values_.node_reachable(node.id)) return;

  const auto& fetches = caches_.fetch_classes(node.id);
  const auto& data = caches_.data_classes(node.id);
  const auto& accesses = values_.accesses(node.id);
  std::size_t data_index = 0;

  std::uint32_t pc = node.block->begin;
  for (std::size_t i = 0; i < node.block->insts.size(); ++i, pc += 4) {
    const Inst& inst = node.block->insts[i];

    // Execute-stage cost.
    const unsigned base = mem::base_cycles(inst.op, hw_.pipeline);
    timing.lb += base;
    timing.ub += base;

    // Fetch cost.
    const mem::Region& fregion = hw_.memory.region_for(pc);
    const unsigned flat = fregion.read_latency;
    const FetchClass fc = i < fetches.size() ? fetches[i] : FetchClass{};
    switch (fc.cls) {
    case AccessClass::always_hit:
      timing.lb += 1;
      timing.ub += 1;
      break;
    case AccessClass::always_miss:
      if (fc.persistent_loop >= 0) {
        timing.lb += 1;
        timing.ub += 1;
        timing.ps_terms.push_back({fc.persistent_loop, flat, 1});
      } else {
        timing.lb += 1 + flat;
        timing.ub += 1 + flat;
      }
      break;
    case AccessClass::not_classified:
      timing.lb += 1;
      if (fc.persistent_loop >= 0) {
        timing.ub += 1;
        timing.ps_terms.push_back({fc.persistent_loop, flat, 1});
      } else {
        timing.ub += 1 + flat;
      }
      break;
    case AccessClass::uncached:
      timing.lb += 1 + flat;
      timing.ub += 1 + flat;
      break;
    }

    // Memory cost.
    if (inst.is_mem_access() && data_index < data.size() && data_index < accesses.size()) {
      const DataClass& dc = data[data_index];
      const AccessInfo& access = accesses[data_index];
      ++data_index;
      if (access.is_store) {
        const auto [wlo, whi] = hw_.memory.write_latency_bounds(access.addr);
        timing.lb += wlo;
        timing.ub += whi;
      } else {
        const auto [rlo, rhi] = hw_.memory.read_latency_bounds(access.addr);
        switch (dc.cls) {
        case AccessClass::always_hit:
          timing.lb += 1;
          timing.ub += 1;
          break;
        case AccessClass::always_miss:
          if (dc.persistent_loop >= 0) {
            timing.lb += 1;
            timing.ub += 1;
            timing.ps_terms.push_back({dc.persistent_loop, rhi, dc.candidate_count});
          } else {
            timing.lb += 1 + rlo;
            timing.ub += 1 + rhi;
          }
          break;
        case AccessClass::not_classified:
          timing.lb += 1;
          if (dc.persistent_loop >= 0) {
            timing.ub += 1;
            timing.ps_terms.push_back({dc.persistent_loop, rhi, dc.candidate_count});
          } else {
            timing.ub += 1 + rhi;
          }
          break;
        case AccessClass::uncached:
          timing.lb += 1 + rlo;
          timing.ub += 1 + rhi;
          break;
        }
      }
    }
  }

  // Control penalties: unconditional transfers charge the node; the
  // taken direction of a conditional branch charges its edge.
  const Inst& last = node.block->insts.back();
  if (last.op == Opcode::jal || last.op == Opcode::jalr) {
    timing.lb += hw_.pipeline.jump_penalty;
    timing.ub += hw_.pipeline.jump_penalty;
  }
}

} // namespace wcet::analysis
