// ValidatePass skip-flow contract: the witness-realization walk and the
// simulator replay are independent legs. Exhausting the witness walk
// budget must record its classified reason WITHOUT blocking the replay
// (the replay never reads the witness), and skip reasons accumulate —
// an earlier reason is never overwritten by a later one. The front
// ends' gate (cli::check_validation) turns any contradiction a
// validated report carries into the internal-error exit.
#include <gtest/gtest.h>

#include <string>

#include "cli/cli_common.hpp"
#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {
namespace {

const isa::Image& test_image() {
  static const isa::Image image = mcc::compile_program(
      "int data[8] = {1,2,3,4,5,6,7,8};\n"
      "int main(void) { int i; int s = 0;\n"
      "  for (i = 0; i < 6; i++) { s += data[(s + i) & 7]; }\n"
      "  return s; }\n").image;
  return image;
}

TEST(ValidateGate, WitnessBudgetExhaustionDoesNotBlockReplay) {
  const Analyzer analyzer(test_image(), mem::typical_hw());
  AnalysisOptions options;
  options.validate = true;
  options.validate_witness_max_steps = 1; // walk cannot reach a verdict
  const WcetReport report = analyzer.analyze(options);
  ASSERT_TRUE(report.ok);
  ASSERT_TRUE(report.validated);

  // The walk budget bit: classified skip reason, no verdict recorded.
  EXPECT_FALSE(report.witness_checked);
  EXPECT_NE(report.validation_skipped.find("witness walk budget exhausted"),
            std::string::npos)
      << report.validation_skipped;

  // The replay leg still ran to completion — it is witness-independent.
  EXPECT_TRUE(report.witness_replayed) << report.validation_skipped;
  EXPECT_GT(report.measured_cycles, 0u);
  EXPECT_NE(report.tightness_x1000, 0u);
  EXPECT_LE(report.measured_cycles, report.wcet_cycles);
}

TEST(ValidateGate, DefaultBudgetReachesVerdictAndReplays) {
  const Analyzer analyzer(test_image(), mem::typical_hw());
  AnalysisOptions options;
  options.validate = true;
  const WcetReport report = analyzer.analyze(options);
  ASSERT_TRUE(report.ok);
  ASSERT_TRUE(report.validated);
  EXPECT_TRUE(report.witness_checked);
  EXPECT_TRUE(report.witness_valid);
  EXPECT_TRUE(report.witness_replayed);
  EXPECT_EQ(report.validation_skipped.find("witness walk budget exhausted"),
            std::string::npos)
      << report.validation_skipped;
}

// A validated report whose three oracle verdicts agree with its bounds.
WcetReport consistent_report() {
  WcetReport report;
  report.ok = true;
  report.wcet_cycles = 500;
  report.bcet_cycles = 100;
  report.validated = true;
  report.paths_explored = 12;
  report.oracle_bracket_ok = true;
  report.witness_checked = true;
  report.witness_valid = true;
  report.witness_replayed = true;
  report.measured_cycles = 450;
  return report;
}

TEST(ValidateGate, CliCheckPassesConsistentAndUnvalidatedReports) {
  EXPECT_NO_THROW(cli::check_validation(consistent_report()));
  WcetReport unvalidated = consistent_report();
  unvalidated.validated = false;
  unvalidated.oracle_bracket_ok = false; // never looked at unless validated
  EXPECT_NO_THROW(cli::check_validation(unvalidated));
}

TEST(ValidateGate, CliCheckRejectsEachContradiction) {
  WcetReport bracket = consistent_report();
  bracket.oracle_bracket_ok = false;
  EXPECT_THROW(cli::check_validation(bracket), InternalError);

  WcetReport witness = consistent_report();
  witness.witness_valid = false;
  EXPECT_THROW(cli::check_validation(witness), InternalError);

  WcetReport above = consistent_report();
  above.measured_cycles = 501;
  EXPECT_THROW(cli::check_validation(above), InternalError);
  WcetReport below = consistent_report();
  below.measured_cycles = 99;
  EXPECT_THROW(cli::check_validation(below), InternalError);
}

} // namespace
} // namespace wcet
