// The front half of the Figure-1 pipeline, built by hand for the unit
// tests of the value, loop-bound and cache analyses: decode, supergraph
// expansion, loop forest, dominators, the shared RPO schedule, the
// shared TransferCache and one value-analysis run — the objects
// decode_phase and value_phase (src/wcet/pipeline.cpp) build, in the
// configuration they build them, so the analyses under test run as in
// production.
#pragma once

#include <utility>
#include <vector>

#include "analysis/transfer_cache.hpp"
#include "analysis/value_analysis.hpp"
#include "cfg/domloop.hpp"
#include "cfg/program.hpp"
#include "cfg/supergraph.hpp"
#include "isa/image.hpp"
#include "mem/hwmodel.hpp"

namespace wcet::testshapes {

struct FrontHalf {
  isa::Image image;
  mem::HwConfig hw; // hw.memory is the memory map value analysis reads
  cfg::Program program;
  cfg::Supergraph sg;
  cfg::LoopForest loops;
  cfg::Dominators doms;
  std::vector<int> schedule;
  analysis::TransferCache transfers;
  analysis::ValueAnalysis values;

  explicit FrontHalf(isa::Image image_in, mem::HwConfig hw_in = mem::typical_hw(),
                     const cfg::ResolutionHints& hints = {},
                     const analysis::ValueAnalysis::Options& options = {})
      : image(std::move(image_in)), hw(std::move(hw_in)),
        program(cfg::Program::reconstruct(image, image.entry(), hints)),
        sg(cfg::Supergraph::expand(program)), loops(sg), doms(sg),
        schedule(cfg::rpo_priorities(sg, doms.rpo())), transfers(sg),
        values(sg, loops, hw.memory, options, schedule) {
    values.run(nullptr, &transfers);
  }
};

} // namespace wcet::testshapes
