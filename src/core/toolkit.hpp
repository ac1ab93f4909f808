// Public facade of the library: one header that exposes the full
// pipeline — assemble, simulate, analyze, validate — for examples,
// benchmarks and downstream users.
#pragma once

#include <cstdint>

#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "isa/image.hpp"
#include "mem/hwmodel.hpp"
#include "sim/simulator.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {

// Outcome of checking a static bound against an observed execution.
struct BoundCheck {
  bool analysis_ok = false;
  bool run_completed = false;
  std::uint64_t observed_cycles = 0;
  std::uint64_t wcet_bound = 0;
  std::uint64_t bcet_bound = 0;

  bool sound() const {
    return analysis_ok && run_completed && bcet_bound <= observed_cycles &&
           observed_cycles <= wcet_bound;
  }
};

// Run one simulation and compare against the statically computed bounds.
BoundCheck check_bounds(const WcetReport& report, sim::Simulator& sim);

} // namespace wcet
