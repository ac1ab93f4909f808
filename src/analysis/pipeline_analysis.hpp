// Pipeline analysis (Figure 1, "Pipeline Analysis"): per-basic-block
// execution time bounds [BCET, WCET] in cycles, derived from
//   - the shared hardware cost model (mem/hwmodel.hpp),
//   - cache classifications (AH/AM/NC/persistent),
//   - memory-region latency bounds over value-analysis address
//     intervals: an unknown address is charged the slowest reachable
//     memory module — the paper's Section 4.3 effect, and the lever the
//     `accesses` annotation moves.
//
// tiny32's pipeline is in-order with additive, independent costs, so
// block bounds compose from instruction bounds without timing anomalies.
// Persistent accesses contribute their hit cost here plus a separate
// once-per-loop-entry miss term consumed by the IPET.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/value_analysis.hpp"
#include "cfg/supergraph.hpp"
#include "mem/hwmodel.hpp"

namespace wcet::analysis {

struct PsTerm {
  int loop_id = -1;      // loop whose entry count bounds the misses
  unsigned penalty = 0;  // extra cycles of one miss over a hit
  unsigned line_count = 1; // misses <= line_count * loop entries
};

struct NodeTiming {
  std::uint64_t lb = 0; // best-case cycles of one execution
  std::uint64_t ub = 0; // worst-case cycles (persistent misses excluded)
  std::vector<PsTerm> ps_terms;
};

class PipelineAnalysis {
public:
  PipelineAnalysis(const cfg::Supergraph& sg, const ValueAnalysis& values,
                   const CacheAnalysis& caches, const mem::HwConfig& hw);

  // With `prev` (the previous run over a structurally identical
  // supergraph, same hardware), a node flagged in `node_clean` — code,
  // in-state and access list verified equal — whose cache rows the
  // cache analysis adopted (CacheAnalysis::rows_adopted) adopts
  // `prev`'s timing, and an edge leaving such a node its extra cycles:
  // these are exactly the inputs they are computed from. `prev` is
  // only read.
  void run(const PipelineAnalysis* prev = nullptr,
           const std::vector<char>* node_clean = nullptr);
  // Node timings adopted by the last run().
  std::size_t adopted_timings() const { return adopted_timings_; }

  const NodeTiming& timing(int node) const {
    return timings_[static_cast<std::size_t>(node)];
  }
  // Extra cycles charged when traversing `edge` (taken-branch penalty).
  unsigned edge_extra(int edge) const { return edge_extra_[static_cast<std::size_t>(edge)]; }

private:
  void compute_node_timing(int node);

  const cfg::Supergraph& sg_;
  const ValueAnalysis& values_;
  const CacheAnalysis& caches_;
  const mem::HwConfig& hw_;
  std::vector<NodeTiming> timings_;
  std::vector<unsigned> edge_extra_;
  std::size_t adopted_timings_ = 0;
};

} // namespace wcet::analysis
