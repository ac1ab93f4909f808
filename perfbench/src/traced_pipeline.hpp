// The Figure-1 pipeline re-driven through each layer's public functions,
// with a span around every call.
//
// `traced_analyze` calls the layers in the same order and with the same
// arguments as `Analyzer::analyze` (wcet/analyzer.cpp + the passes of
// wcet/pipeline.cpp): one pool and governor per request, the
// decode/value feedback loop, the shared TransferCache, the RPO schedule
// priorities, the annotation access facts, the analysis-plus-annotation
// merged loop bounds and the mode-filtered flow facts. Its bounds must
// equal the untraced run's; the benchmark checks that on every request.
// The cache recipes are built in their own span just before the cache
// fixpoint; the fixpoint's own build call then finds them memoized.
#pragma once

#include <cstdint>
#include <string>

#include "isa/image.hpp"
#include "mem/hwmodel.hpp"
#include "trace.hpp"
#include "wcet/analyzer.hpp"

namespace perfbench {

// Structural counts of one traced request, read at the layer boundaries.
struct LayerCounts {
  int sg_nodes = 0;
  int instances = 0;
  int loops = 0;
  int bounded_loops = 0;
  std::uint64_t cache_joins = 0;
  std::uint64_t cache_join_skips = 0;
  std::uint64_t set_image_allocs = 0;
  std::uint64_t live_set_images_peak = 0;
  int sub_ilps = 0;
  int ipet_depth = 0;
  int ilp_constraints = 0;
  std::uint64_t phase1_pivots = 0;
  std::uint64_t phase2_pivots = 0;
  std::uint64_t crash_basis_rows = 0;
};

struct TracedOutcome {
  bool ok = false;
  bool degraded = false;
  std::uint64_t wcet_cycles = 0;
  std::uint64_t bcet_cycles = 0;
  LayerCounts counts;
};

// One cold request, from Analyzer construction to bounds, with spans
// recorded into `tracer` under request id `request`: a root span
// ("request", layer "wcet") whose children are the layer calls.
TracedOutcome traced_analyze(const wcet::isa::Image& image, const wcet::mem::HwConfig& hw,
                             const std::string& annotations,
                             const wcet::AnalysisOptions& options, Tracer& tracer,
                             int request);

} // namespace perfbench
