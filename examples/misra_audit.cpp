// MISRA-C:2004 audit (paper Section 4.2): run the rule checker on a
// deliberately messy source file and print each violation with its
// WCET-predictability impact. Exits nonzero if the analyzer states a
// bound for the unannotated program.
#include <cstdio>

#include "core/toolkit.hpp"
#include "mcc/misra.hpp"
#include "mcc/runtime.hpp"

int main() {
  const char* legacy_code = R"(
int env[16];
int watchdog;

int parse(int n, ...) {                     /* rule 16.1 */
  int* ap = __va_start();
  int i; int s = 0;
  for (i = 0; i < n; i++) { s += ap[i]; }
  return s;
}

int descend(int depth) {                    /* rule 16.2 */
  if (depth == 0) { return 0; }
  return 1 + descend(depth - 1);
}

int main(void) {
  float gain;
  int total = 0;
  int* scratch = (int*)malloc(64);          /* rule 20.4 */
  if (setjmp(env) != 0) { return -1; }      /* rule 20.7 */
  for (gain = 0.0f; gain < 4.0f; gain = gain + 0.5f) {  /* rule 13.4 */
    total += (int)gain;
  }
  scratch[0] = total;
  {
    int i;
    for (i = 0; i < 8; i++) {
      total += i;
      if (total > 100) { i++; }             /* rule 13.6 */
    }
  }
  if (watchdog) goto bail;                  /* rule 14.4 */
  total += descend(3) + parse(2, 10, 20);
bail:
  return total;
  total = 0;                                /* rule 14.1: unreachable */
}
)";
  const auto built = wcet::mcc::compile_program(legacy_code);
  std::printf("%s\n", wcet::mcc::format_misra_report(built.violations).c_str());

  // The audit does not stop the build: the image still runs.
  wcet::sim::Simulator sim(built.image, wcet::mem::typical_hw());
  const auto run = sim.run();
  std::printf("program still executes: exit=%u after %llu cycles\n", run.exit_code,
              static_cast<unsigned long long>(run.cycles));

  // But the analyzer refuses a bound until the flagged constructs are
  // annotated — the paper's core point.
  const wcet::WcetReport report =
      wcet::Analyzer(built.image, wcet::mem::typical_hw()).analyze();
  std::printf("static WCET bound without annotations: %s\n",
              report.ok ? "available (unexpected)" : "REFUSED (annotations required)");
  for (const auto& obstruction : report.obstructions) {
    std::printf("  obstruction: %s\n", obstruction.c_str());
  }
  return report.ok ? 1 : 0;
}
