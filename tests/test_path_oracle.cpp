// Differential suite for the bounded exhaustive path-exploration
// oracle (validate/path_oracle): an independent implementation of
// "what can this task cost" that shares nothing with the ILP except
// the timing recipes. On every generated shape of the differential
// battery, across all three IPET decomposition modes and across worker
// counts, the oracle's observed cost range must bracket the computed
// bounds from the inside: max explored cost <= WCET and
// BCET <= min explored cost. On small fact-free programs the
// enumeration completes and the bracket tightens to equality — the ILP
// optimum *is* a structurally feasible path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"
#include "support/rng.hpp"
#include "tests/differential_shapes.hpp"

namespace wcet {
namespace {

using testshapes::Shape;
using testshapes::analyze_shape;
using testshapes::conditional_fan;
using testshapes::shapes;

// Tight oracle budgets keep the full sweep (shapes x modes x threads)
// fast; a truncated sweep still yields a sound bracket, which is the
// property under test.
WcetReport analyze_validated(const Shape& shape, int threads,
                             analysis::IpetDecomposition decomposition,
                             std::uint64_t max_paths = 4000,
                             std::uint64_t max_steps = 200'000) {
  AnalysisOptions options;
  options.threads = threads;
  options.decomposition = decomposition;
  options.validate = true;
  options.validate_max_paths = max_paths;
  options.validate_max_steps = max_steps;
  return analyze_shape(shape, options);
}

void expect_bracket(const WcetReport& report, const std::string& what) {
  ASSERT_TRUE(report.validated) << what;
  if (!report.ok) {
    // No bound stated: the oracle must not invent one, only record why
    // it stood down.
    EXPECT_FALSE(report.validation_skipped.empty()) << what;
    EXPECT_FALSE(report.oracle_bracket_ok) << what;
    return;
  }
  ASSERT_GT(report.paths_explored, 0u)
      << what << ": oracle explored no complete path\n" << report.to_string();
  EXPECT_TRUE(report.oracle_bracket_ok) << what << "\n" << report.to_string();
  EXPECT_LE(report.oracle_max_path_cost, report.wcet_cycles) << what;
  EXPECT_GE(report.oracle_min_path_cost, report.bcet_cycles) << what;
  EXPECT_LE(report.oracle_min_path_cost, report.oracle_max_path_cost) << what;
}

TEST(PathOracleDifferential, BracketsEveryShapeAcrossModesAndThreads) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    for (const auto mode :
         {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
      for (const int threads : {1, 8}) {
        std::ostringstream what;
        what << shape.name << " mode " << static_cast<int>(mode) << " threads "
             << threads;
        expect_bracket(analyze_validated(shape, threads, mode), what.str());
      }
    }
  }
}

TEST(PathOracleDifferential, ExactOnCompleteEnumeration) {
  // Small enough to enumerate exhaustively, no flow facts: every
  // integral flow of the ILP decomposes into an entry->exit walk plus
  // splice-able cycles, so the ILP optimum is itself a path the oracle
  // visits — the bracket collapses to equality on both sides.
  Shape tiny{"tiny", std::string(testshapes::k_input_preamble) + R"(
int main(void) {
  int v = input[0];
  if (input[1] > 10) { v += data[v & 15]; } else { v -= 1; }
  { int i; for (i = 0; i < 3; i++) { v += data[(v + i) & 15]; } }
  if (input[2] > 20) { v += data[(v + 3) & 15]; }
  return v;
}
)",
             "", "", false};
  for (const auto mode :
       {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const WcetReport report = analyze_validated(tiny, 1, mode);
    ASSERT_TRUE(report.ok) << report.to_string();
    ASSERT_TRUE(report.oracle_complete) << report.to_string();
    EXPECT_EQ(report.oracle_max_path_cost, report.wcet_cycles) << report.to_string();
    EXPECT_EQ(report.oracle_min_path_cost, report.bcet_cycles) << report.to_string();
    EXPECT_TRUE(report.oracle_bracket_ok);
  }
}

TEST(PathOracleDifferential, FlowFactsPruneOracle) {
  // The oracle applies the same trusted facts as the ILP. On a program
  // small enough for complete enumeration, capping the heavy helper
  // off the worst-case path must cut the same paths from the oracle's
  // set as from the ILP polytope: both maxima drop, and both stay
  // equal to each other.
  const std::string source = std::string(testshapes::k_input_preamble) +
                             testshapes::leaf_fn("h0", 1, 6) +
                             testshapes::leaf_fn("h1", 1, 2) + R"(
int main(void) {
  int v = input[0];
  if (input[1] > 10) { v += h0(v); } else { v += h1(v); }
  return v;
}
)";
  Shape uncapped{"small_fan", source, "", "", false};
  Shape capped{"small_fan_capped", source, "flow at \"h0\" <= 0\n", "", false};
  const WcetReport plain =
      analyze_validated(uncapped, 1, analysis::IpetDecomposition::recursive);
  const WcetReport with_cap =
      analyze_validated(capped, 1, analysis::IpetDecomposition::recursive);
  ASSERT_TRUE(plain.ok) << plain.to_string();
  ASSERT_TRUE(with_cap.ok) << with_cap.to_string();
  ASSERT_TRUE(plain.oracle_complete) << plain.to_string();
  ASSERT_TRUE(with_cap.oracle_complete) << with_cap.to_string();
  expect_bracket(plain, "uncapped fan");
  expect_bracket(with_cap, "capped fan");
  EXPECT_LT(with_cap.wcet_cycles, plain.wcet_cycles) << "cap did not bind";
  EXPECT_LT(with_cap.oracle_max_path_cost, plain.oracle_max_path_cost)
      << "the flow cap did not prune the oracle's path set";
  EXPECT_EQ(plain.oracle_max_path_cost, plain.wcet_cycles);
  EXPECT_EQ(with_cap.oracle_max_path_cost, with_cap.wcet_cycles);
  EXPECT_LT(with_cap.paths_explored, plain.paths_explored);
}

// Randomized property leg: same generator idiom and seed formula as
// tests/test_soundness_random.cpp, so any seed that breaks soundness
// there immediately gets an oracle-side witness here.
class RandomProgramGenerator {
public:
  explicit RandomProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "int input[8] = {0, 0, 0, 0, 0, 0, 0, 0};\n";
    os << "int acc = 0;\n";
    const int helpers = 1 + static_cast<int>(rng_.below(3));
    for (int h = 0; h < helpers; ++h) {
      os << "int helper" << h << "(int x) {\n";
      os << body(2, "x");
      os << "  return acc + x;\n}\n";
    }
    os << "int main(void) {\n";
    os << "  int v = input[0];\n";
    for (int h = 0; h < helpers; ++h) {
      if (rng_.below(2) != 0u) os << "  v = helper" << h << "(v);\n";
    }
    os << body(3, "v");
    os << "  return acc;\n}\n";
    return os.str();
  }

private:
  std::string body(int depth, const std::string& var) {
    std::ostringstream os;
    const int statements = 1 + static_cast<int>(rng_.below(3));
    for (int s = 0; s < statements; ++s) {
      switch (rng_.below(depth > 0 ? 5 : 2)) {
      case 0:
        os << "  acc += " << rng_.below(10) << " + " << var << ";\n";
        break;
      case 1:
        os << "  acc ^= (" << var << " >> " << rng_.below(4) << ") + input["
           << rng_.below(8) << "];\n";
        break;
      case 2: { // bounded counter loop
        const std::string i = fresh();
        os << "  { int " << i << "; for (" << i << " = 0; " << i << " < "
           << (2 + rng_.below(6)) << "; " << i << "++) {\n";
        os << body(depth - 1, i);
        os << "  } }\n";
        break;
      }
      case 3: // input-dependent branch
        os << "  if (input[" << rng_.below(8) << "] > " << rng_.below(50) << ") {\n"
           << body(depth - 1, var) << "  } else {\n"
           << body(depth - 1, var) << "  }\n";
        break;
      case 4: { // dense switch over masked input
        os << "  switch (input[" << rng_.below(8) << "] & 3) {\n";
        for (int k = 0; k < 4; ++k) {
          os << "  case " << k << ": acc += " << rng_.below(20) << "; break;\n";
        }
        os << "  }\n";
        break;
      }
      }
    }
    return os.str();
  }

  std::string fresh() { return "i" + std::to_string(counter_++); }

  Rng rng_;
  int counter_ = 0;
};

class RandomProgramOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramOracle, OracleBracketsAndReplayStaysInside) {
  // Same seed formula as RandomProgramSoundness in
  // tests/test_soundness_random.cpp.
  RandomProgramGenerator generator(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::string source = generator.generate();
  SCOPED_TRACE(source);
  const Shape shape{"random", source, "", "", false};
  const WcetReport report =
      analyze_validated(shape, 1, analysis::IpetDecomposition::recursive);
  ASSERT_TRUE(report.ok) << report.to_string();
  expect_bracket(report, "random seed " + std::to_string(GetParam()));
  // Fact-free programs replay end to end: the measured run is a
  // concrete execution, so it must land inside the bounds, and the
  // tightness ratio is >= 1 by construction.
  ASSERT_TRUE(report.witness_replayed) << report.to_string();
  EXPECT_LE(report.measured_cycles, report.wcet_cycles) << report.to_string();
  EXPECT_GE(report.measured_cycles, report.bcet_cycles) << report.to_string();
  EXPECT_GE(report.tightness_x1000, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramOracle, ::testing::Range(0, 12));

} // namespace
} // namespace wcet
