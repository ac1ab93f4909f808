// The synthetic call-tree shape (N leaf functions x 3 counted loops) as
// a tier-1 oracle. Two cases:
//   * ScalingShapeBoundsPinned pins the exact WCET/BCET, tightness,
//     IPET structure, emitted ILP size and pivot counts of the shape at
//     N = 1..64, at 1 and 4 threads and across both IPET decomposition
//     modes. N = 64 is the `unseeded64` program of perfbench's
//     `wide_cold` workload, which times it.
//   * Arg16BitIdenticalAtEightThreadsAcrossModes analyzes N = 16 at
//     threads=8 and requires bit-identical bounds, obstructions and
//     cache stats against the sequential run, for every IPET mode.
//
// This is the test the sanitizer jobs lean on: built with
// -DWCET_SANITIZE=thread it drives the copy-on-write abstract states
// (support/cow.hpp) across 8 ThreadPool workers under tsan, with
// WCET_COW_CHECK auditing that no detached mutation ever writes a
// still-shared block; -DWCET_SANITIZE=address covers the same paths
// for lifetime bugs.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

namespace wcet {
namespace {

// N functions with `loops_per_function` counted loops over a shared
// table, called in sequence from main (call depth 1).
std::string synthetic_program(int functions, int loops_per_function) {
  std::ostringstream os;
  os << "int data[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};\n";
  for (int f = 0; f < functions; ++f) {
    os << "int work" << f << "(int x) {\n  int s = x;\n";
    for (int l = 0; l < loops_per_function; ++l) {
      os << "  { int i" << l << "; for (i" << l << " = 0; i" << l << " < "
         << (4 + (l % 5)) << "; i" << l << "++) { s += data[(s + i" << l
         << ") & 15]; } }\n";
    }
    os << "  return s;\n}\n";
  }
  os << "int main(void) {\n  int total = 0;\n";
  for (int f = 0; f < functions; ++f) os << "  total += work" << f << "(total);\n";
  os << "  return total;\n}\n";
  return os.str();
}

struct ScalingPoint {
  int functions;
  std::uint64_t wcet;
  std::uint64_t bcet;
  std::uint64_t tightness_x1000; // validated run, threads 4
  int sub_ilps;                  // recursive IPET
  // The emitted systems and their solve, summed over every region:
  // region builds must emit the same variables and rows in the same
  // order, so the crash basis and every pivot sequence repeat.
  int ilp_variables;
  int ilp_constraints;
  std::uint64_t phase2_pivots;
  std::uint64_t crash_basis_rows;
};

// Any change to the bounds changes a stated bound or its tightness
// against the deterministic simulator replay; perf work keeps them
// bit-identical.
constexpr ScalingPoint kScalingPoints[] = {
    {1, 1356, 217, 1018, 0, 51, 81, 34, 17},
    {4, 5180, 626, 1025, 4, 186, 310, 133, 53},
    {8, 10277, 1173, 1026, 8, 366, 614, 265, 101},
    {16, 20470, 2265, 1026, 16, 726, 1222, 529, 197},
    {32, 40858, 4449, 1026, 32, 1446, 2438, 1057, 389},
    {64, 85672, 10918, 1034, 64, 2886, 4870, 2113, 773},
};

TEST(ParallelOracle, ScalingShapeBoundsPinned) {
  for (const ScalingPoint& point : kScalingPoints) {
    const auto built = mcc::compile_program(synthetic_program(point.functions, 3));
    const Analyzer analyzer(built.image, mem::typical_hw());
    const std::string label = "functions " + std::to_string(point.functions);

    for (const int threads : {1, 4}) {
      AnalysisOptions options;
      options.threads = threads;
      const WcetReport report = analyzer.analyze(options);
      ASSERT_TRUE(report.ok) << label << '\n' << report.to_string();
      EXPECT_EQ(report.wcet_cycles, point.wcet) << label << " threads " << threads;
      EXPECT_EQ(report.bcet_cycles, point.bcet) << label << " threads " << threads;
      // An unlimited-budget run is the exact analysis: the governor
      // never trips, so the pinned numbers are never degraded ones.
      EXPECT_TRUE(report.degradations.empty()) << label << " threads " << threads;
      // The shape is fact-free: every region starts off the network-flow
      // crash basis.
      EXPECT_EQ(report.phase1_pivots, 0u) << label << " threads " << threads;
      EXPECT_EQ(report.ipet_sub_ilps, point.sub_ilps) << label << " threads " << threads;
      EXPECT_EQ(report.ilp_variables, point.ilp_variables) << label << " threads " << threads;
      EXPECT_EQ(report.ilp_constraints, point.ilp_constraints)
          << label << " threads " << threads;
      EXPECT_EQ(report.phase2_pivots, point.phase2_pivots) << label << " threads " << threads;
      EXPECT_EQ(report.crash_basis_rows, point.crash_basis_rows)
          << label << " threads " << threads;
    }

    AnalysisOptions validated;
    validated.threads = 4;
    validated.validate = true;
    validated.validate_max_paths = 4000;
    validated.validate_max_steps = 400'000;
    const WcetReport vr = analyzer.analyze(validated);
    EXPECT_TRUE(vr.witness_replayed) << label;
    EXPECT_EQ(vr.tightness_x1000, point.tightness_x1000) << label;
  }

  // Cross-mode oracle on the largest point: one monolithic ILP states
  // the same bounds as the recursive decomposition.
  const auto built = mcc::compile_program(synthetic_program(64, 3));
  AnalysisOptions monolithic;
  monolithic.threads = 4;
  monolithic.decomposition = analysis::IpetDecomposition::monolithic;
  const WcetReport mono = Analyzer(built.image, mem::typical_hw()).analyze(monolithic);
  ASSERT_TRUE(mono.ok) << mono.to_string();
  EXPECT_EQ(mono.wcet_cycles, 85672u);
  EXPECT_EQ(mono.bcet_cycles, 10918u);
  EXPECT_TRUE(mono.degradations.empty());
}

TEST(ParallelOracle, Arg16BitIdenticalAtEightThreadsAcrossModes) {
  const auto built = mcc::compile_program(synthetic_program(16, 3));
  const Analyzer analyzer(built.image, mem::typical_hw());

  for (const auto mode :
       {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
    AnalysisOptions options;
    options.decomposition = mode;
    options.threads = 1;
    const WcetReport sequential = analyzer.analyze(options);
    ASSERT_TRUE(sequential.ok) << sequential.to_string();

    options.threads = 8;
    const WcetReport parallel = analyzer.analyze(options);
    ASSERT_TRUE(parallel.ok) << parallel.to_string();

    EXPECT_EQ(sequential.wcet_cycles, parallel.wcet_cycles);
    EXPECT_EQ(sequential.bcet_cycles, parallel.bcet_cycles);
    EXPECT_EQ(sequential.obstructions, parallel.obstructions);
    EXPECT_EQ(sequential.cache_stats.fetch_hit, parallel.cache_stats.fetch_hit);
    EXPECT_EQ(sequential.cache_stats.fetch_miss, parallel.cache_stats.fetch_miss);
    EXPECT_EQ(sequential.cache_stats.fetch_nc, parallel.cache_stats.fetch_nc);
    EXPECT_EQ(sequential.cache_stats.fetch_uncached, parallel.cache_stats.fetch_uncached);
    EXPECT_EQ(sequential.cache_stats.data_hit, parallel.cache_stats.data_hit);
    EXPECT_EQ(sequential.cache_stats.data_miss, parallel.cache_stats.data_miss);
    EXPECT_EQ(sequential.cache_stats.data_nc, parallel.cache_stats.data_nc);
    EXPECT_EQ(sequential.cache_stats.data_uncached, parallel.cache_stats.data_uncached);
    EXPECT_EQ(sequential.cache_stats.persistent, parallel.cache_stats.persistent);
  }
}

} // namespace
} // namespace wcet
