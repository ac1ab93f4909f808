// Operating modes (paper Section 4.3): a flight-control task analyzed
// globally and per mode. The `mode ... excludes` annotations encode the
// design-level knowledge that ground and air work never mix, giving each
// mode a far tighter bound than the global analysis. Exits nonzero when
// a mode goes unbounded or GROUND is not below the global bound.
#include <cstdio>
#include <sstream>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

int main() {
  const char* controller = R"(
int in_air;          /* set by the avionics environment */
int sensors[8];

int ground_checks(void) {
  int i; int s = 0;
  for (i = 0; i < 4; i++) { s += sensors[i]; }
  return s;
}

int attitude_filter(void) {
  int i; int j; int acc = 0;
  for (i = 0; i < 16; i++) {
    for (j = 0; j < 8; j++) { acc += sensors[j] * (i - j); }
  }
  return acc;
}

int main(void) {
  if (in_air != 0) { return attitude_filter(); }
  return ground_checks();
}
)";
  const auto built = wcet::mcc::compile_program(controller);
  const wcet::mem::HwConfig hw = wcet::mem::typical_hw();

  // The mode flag and the sensor block are environment-written.
  const auto* flag = built.image.find_symbol("in_air");
  const auto* sensors = built.image.find_symbol("sensors");
  std::ostringstream env;
  env << "region \"flag\" at " << flag->addr << " size 4 read 2 write 2 io\n";
  env << "region \"sensors\" at " << sensors->addr << " size 32 read 2 write 2 io\n";

  const wcet::Analyzer global(built.image, hw, env.str());
  const auto all = global.analyze();

  wcet::AnalysisOptions ground_mode;
  ground_mode.mode = "GROUND";
  const wcet::Analyzer ground(built.image, hw,
                              env.str() + "mode GROUND excludes \"attitude_filter\"\n");
  const auto ground_report = ground.analyze(ground_mode);

  wcet::AnalysisOptions air_mode;
  air_mode.mode = "AIR";
  const wcet::Analyzer air(built.image, hw,
                           env.str() + "mode AIR excludes \"ground_checks\"\n");
  const auto air_report = air.analyze(air_mode);

  std::printf("global WCET bound (any mode): %llu cycles\n",
              static_cast<unsigned long long>(all.wcet_cycles));
  std::printf("mode GROUND bound:            %llu cycles\n",
              static_cast<unsigned long long>(ground_report.wcet_cycles));
  std::printf("mode AIR bound:               %llu cycles\n",
              static_cast<unsigned long long>(air_report.wcet_cycles));
  const bool tighter = all.ok && ground_report.ok && air_report.ok &&
                       ground_report.wcet_cycles < all.wcet_cycles;
  if (!tighter) {
    std::printf("\nFAILED: every mode must be bounded, GROUND below the global bound\n");
    return 1;
  }
  std::printf("\nscheduling the ground frame with its own bound saves %.1f%% budget\n",
              100.0 * (1.0 - static_cast<double>(ground_report.wcet_cycles) /
                                 static_cast<double>(all.wcet_cycles)));
  return 0;
}
