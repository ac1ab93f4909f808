// Quickstart: compile a small C task with mcc, compute a WCET bound,
// and cross-check it against the cycle-accurate simulator. Exits nonzero
// when the bounds do not bracket the simulated run.
//
//   $ ./quickstart
#include <cstdio>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

int main() {
  // 1. A small embedded task in the mcc C subset.
  const char* task = R"(
int table[10] = {4, 8, 15, 16, 23, 42, 5, 9, 27, 31};

int weighted_sum(void) {
  int s = 0;
  int i;
  for (i = 0; i < 10; i++) {
    s += table[i] * (i + 1);
  }
  return s;
}

int main(void) { return weighted_sum(); }
)";

  // 2. Compile to a tiny32 image (also runs the MISRA-C:2004 audit).
  const wcet::mcc::CompileResult built = wcet::mcc::compile_program(task);
  std::printf("compiled: entry at %s, %zu MISRA finding(s)\n",
              built.image.describe(built.image.entry()).c_str(),
              built.violations.size());

  // 3. Static WCET analysis on the default embedded hardware model
  //    (SRAM + flash + CAN MMIO, 2-way caches).
  const wcet::mem::HwConfig hw = wcet::mem::typical_hw();
  const wcet::Analyzer analyzer(built.image, hw);
  const wcet::WcetReport report = analyzer.analyze();
  std::printf("\n%s\n", report.to_string().c_str());

  // 4. Ground truth: run it.
  wcet::sim::Simulator sim(built.image, hw);
  const wcet::sim::SimResult run = sim.run();
  std::printf("simulated: exit=%u, %llu instructions, %llu cycles\n", run.exit_code,
              static_cast<unsigned long long>(run.instructions),
              static_cast<unsigned long long>(run.cycles));
  const bool sound = report.ok && report.bcet_cycles <= run.cycles &&
                     run.cycles <= report.wcet_cycles;
  std::printf("bound check: %llu <= %llu <= %llu : %s\n",
              static_cast<unsigned long long>(report.bcet_cycles),
              static_cast<unsigned long long>(run.cycles),
              static_cast<unsigned long long>(report.wcet_cycles),
              sound ? "sound" : "VIOLATED");
  return sound ? 0 : 1;
}
