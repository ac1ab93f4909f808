// The Arg(16) bench workload as a tier-1 oracle under maximum
// parallelism: the 16-function call tree of BM_analyze_scaling/16
// analyzed at threads=8 (more workers than the pool ever gets from the
// bench) must produce bit-identical bounds, obstructions and cache
// stats against the sequential run, for every IPET decomposition mode.
//
// This is the test the sanitizer jobs lean on: built with
// -DWCET_SANITIZE=thread it drives the copy-on-write abstract states
// (support/cow.hpp) across 8 ThreadPool workers under tsan, with
// WCET_COW_CHECK auditing that no detached mutation ever writes a
// still-shared block; -DWCET_SANITIZE=address covers the same paths
// for lifetime bugs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

namespace wcet {
namespace {

// Identical generator to bench_analysis_perf.cpp's synthetic_program —
// this test IS the Arg(16) bench point.
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
