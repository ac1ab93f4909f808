#include "core/toolkit.hpp"

namespace wcet {

BoundCheck check_bounds(const WcetReport& report, sim::Simulator& sim) {
  BoundCheck check;
  check.analysis_ok = report.ok;
  check.wcet_bound = report.wcet_cycles;
  check.bcet_bound = report.bcet_cycles;
  const sim::SimResult run = sim.run();
  check.run_completed = run.completed();
  check.observed_cycles = run.cycles;
  return check;
}

} // namespace wcet
