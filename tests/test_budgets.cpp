// Budget semantics: step budgets degrade *soundly* and
// *deterministically* (same budget, same bound, any thread count and
// any IPET decomposition); an unlimited budget is bit-identical to no
// budget at all; and a fired cancel token aborts with a classified
// CancelledError within the latency target.
//
// The core ladder property: walking a budget *down* can only make the
// WCET bound larger (never smaller) and the BCET bound smaller (never
// larger) — a degraded analysis must stay on the safe side of every
// less-degraded one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "support/budget.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {
namespace {

// The synthetic call-tree shape of tests/test_parallel_oracle.cpp: a
// call tree of `functions` workers, each with a few counted loops over
// a shared table.
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

const isa::Image& test_image() {
  static const isa::Image image = mcc::compile_program(synthetic_program(12, 3)).image;
  return image;
}

WcetReport run_with(const AnalysisBudget& budget, int threads = 1,
                    analysis::IpetDecomposition decomposition =
                        analysis::IpetDecomposition::recursive) {
  const Analyzer analyzer(test_image(), mem::typical_hw());
  AnalysisOptions options;
  options.threads = threads;
  options.decomposition = decomposition;
  options.budget = budget;
  return analyzer.analyze(options);
}

const WcetReport& exact_report() {
  static const WcetReport report = run_with(AnalysisBudget{});
  return report;
}

// Walk one budget field down a descending ladder and check every run
// stays sound (vs. the exact bounds) and monotone (vs. the previous,
// less constrained rung). Returns the number of rungs that still
// produced a bound, so callers can require the ladder was non-trivial.
int check_ladder(std::uint64_t AnalysisBudget::* field,
                 const std::vector<std::uint64_t>& ladder, int threads,
                 analysis::IpetDecomposition decomposition, const std::string& what) {
  const WcetReport& exact = exact_report();
  std::uint64_t last_ok_wcet = exact.wcet_cycles;
  int bounded_runs = 0;
  for (const std::uint64_t limit : ladder) {
    AnalysisBudget budget;
    budget.*field = limit;
    const WcetReport report = run_with(budget, threads, decomposition);
    const std::string where = what + " limit " + std::to_string(limit);
    if (!report.ok) {
      // A budget so tight the phase cannot prove anything is a legal
      // outcome (e.g. pivot exhaustion in the root relaxation) — but it
      // must arrive as a classified obstruction, never a bound.
      EXPECT_FALSE(report.obstructions.empty()) << where;
      continue;
    }
    ++bounded_runs;
    EXPECT_GE(report.wcet_cycles, exact.wcet_cycles) << where;
    EXPECT_LE(report.bcet_cycles, exact.bcet_cycles) << where;
    EXPECT_GE(report.wcet_cycles, last_ok_wcet) << where << " (monotonicity)";
    // No pairwise BCET monotonicity check: coarsening at *different*
    // fixpoint rounds yields pointwise-incomparable abstract states, so
    // two degraded runs' BCETs may order either way. Each is still a
    // true lower bound (the `exact` comparison above is the theorem).
    if (report.wcet_cycles != exact.wcet_cycles || report.bcet_cycles != exact.bcet_cycles) {
      EXPECT_TRUE(report.degraded) << where << ": bound moved without a ledger entry";
    }
    last_ok_wcet = report.wcet_cycles;
  }
  return bounded_runs;
}

TEST(Budgets, ValueVisitLadderIsSoundAndMonotone) {
  const std::vector<std::uint64_t> ladder{100000, 2000, 500, 100, 20, 4, 1};
  for (const int threads : {1, 8}) {
    for (const auto mode : {analysis::IpetDecomposition::monolithic,
                            analysis::IpetDecomposition::recursive}) {
      const int bounded = check_ladder(&AnalysisBudget::max_value_visits, ladder, threads,
                                       mode, "value visits");
      EXPECT_GT(bounded, 0);
    }
  }
}

TEST(Budgets, CacheVisitLadderIsSoundAndMonotone) {
  const std::vector<std::uint64_t> ladder{100000, 2000, 500, 100, 20, 4, 1};
  for (const int threads : {1, 8}) {
    for (const auto mode : {analysis::IpetDecomposition::monolithic,
                            analysis::IpetDecomposition::recursive}) {
      const int bounded = check_ladder(&AnalysisBudget::max_cache_visits, ladder, threads,
                                       mode, "cache visits");
      EXPECT_GT(bounded, 0);
    }
  }
}

TEST(Budgets, PivotLadderIsSoundAndMonotone) {
  const std::vector<std::uint64_t> ladder{100000, 500, 100, 30, 10, 3};
  for (const int threads : {1, 8}) {
    for (const auto mode : {analysis::IpetDecomposition::monolithic,
                            analysis::IpetDecomposition::recursive}) {
      check_ladder(&AnalysisBudget::max_pivots, ladder, threads, mode, "pivots");
    }
  }
}

TEST(Budgets, IlpNodeLadderIsSoundAndMonotone) {
  const std::vector<std::uint64_t> ladder{10000, 100, 10, 1};
  for (const int threads : {1, 8}) {
    for (const auto mode : {analysis::IpetDecomposition::monolithic,
                            analysis::IpetDecomposition::recursive}) {
      const int bounded = check_ladder(&AnalysisBudget::max_ilp_nodes, ladder, threads,
                                       mode, "ilp nodes");
      EXPECT_GT(bounded, 0);
    }
  }
}

TEST(Budgets, StateBytesBudgetDegradesSoundly) {
  AnalysisBudget budget;
  budget.max_state_bytes = 1; // trips on the first tracked state
  const WcetReport report = run_with(budget);
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.wcet_cycles, exact_report().wcet_cycles);
  EXPECT_LE(report.bcet_cycles, exact_report().bcet_cycles);
}

// The state-byte charge is defined by the abstract states' content
// (registers, written regions, tracked words), not by sizeof(AbsState):
// at its peak round barrier the fixed program holds 25804 logical
// bytes, so that is the smallest budget the value analysis never trips,
// for any worker count. A change in how AbsState stores the same
// states must leave this figure alone.
TEST(Budgets, StateBytesChargePinned) {
  for (const int threads : {1, 8}) {
    AnalysisBudget budget;
    budget.max_state_bytes = 25804;
    const WcetReport within = run_with(budget, threads);
    EXPECT_FALSE(within.degraded);
    budget.max_state_bytes = 25803;
    const WcetReport over = run_with(budget, threads);
    ASSERT_EQ(over.degradations.size(), 1u);
    EXPECT_EQ(over.degradations[0].phase, "value");
    EXPECT_EQ(over.degradations[0].trigger, "state-byte budget");
  }
}

TEST(Budgets, DeadlineNeverBreaksSoundness) {
  // Wall clock is nondeterministic, so the only portable assertions are
  // soundness and classification: the run completes, and if anything
  // was cut short the ledger says so.
  AnalysisBudget budget;
  budget.deadline_ms = 1;
  const WcetReport report = run_with(budget);
  ASSERT_TRUE(report.ok);
  EXPECT_GE(report.wcet_cycles, exact_report().wcet_cycles);
  EXPECT_LE(report.bcet_cycles, exact_report().bcet_cycles);
  EXPECT_EQ(report.degraded, !report.degradations.empty());
}

// The largest deadline is as good as none: it must never trip, so the
// run is the exact analysis with an empty ledger.
TEST(Budgets, HugeDeadlineNeverTrips) {
  AnalysisBudget budget;
  budget.deadline_ms = std::numeric_limits<std::uint64_t>::max();
  const WcetReport report = run_with(budget);
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.degradations.empty());
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.wcet_cycles, exact_report().wcet_cycles);
  EXPECT_EQ(report.bcet_cycles, exact_report().bcet_cycles);
}

// Same budget => same bound and same ledger, independent of worker
// count: step budgets are consumed only at deterministic points.
TEST(Budgets, DegradedRunsAreDeterministicAcrossThreads) {
  AnalysisBudget budget;
  budget.max_value_visits = 100;
  budget.max_cache_visits = 100;
  const WcetReport one = run_with(budget, 1);
  const WcetReport eight = run_with(budget, 8);
  EXPECT_EQ(one.ok, eight.ok);
  EXPECT_EQ(one.wcet_cycles, eight.wcet_cycles);
  EXPECT_EQ(one.bcet_cycles, eight.bcet_cycles);
  EXPECT_EQ(one.obstructions, eight.obstructions);
  ASSERT_EQ(one.degradations.size(), eight.degradations.size());
  for (std::size_t i = 0; i < one.degradations.size(); ++i) {
    EXPECT_EQ(one.degradations[i].phase, eight.degradations[i].phase);
    EXPECT_EQ(one.degradations[i].trigger, eight.degradations[i].trigger);
    EXPECT_EQ(one.degradations[i].effect, eight.degradations[i].effect);
  }
}

// An explicitly unlimited budget — even with a (never fired) cancel
// token attached — must be bit-identical to the default run.
TEST(Budgets, UnlimitedBudgetIsBitIdenticalToNoBudget) {
  CancelToken token;
  AnalysisBudget budget;
  budget.cancel = &token;
  for (const int threads : {1, 8}) {
    const WcetReport plain = run_with(AnalysisBudget{}, threads);
    const WcetReport governed = run_with(budget, threads);
    EXPECT_TRUE(governed.ok);
    EXPECT_EQ(governed.wcet_cycles, plain.wcet_cycles) << "threads " << threads;
    EXPECT_EQ(governed.bcet_cycles, plain.bcet_cycles) << "threads " << threads;
    EXPECT_EQ(governed.obstructions, plain.obstructions) << "threads " << threads;
    EXPECT_FALSE(governed.degraded);
    EXPECT_TRUE(governed.degradations.empty());
    EXPECT_EQ(governed.cache_stats.fetch_hit, plain.cache_stats.fetch_hit);
    EXPECT_EQ(governed.cache_stats.fetch_miss, plain.cache_stats.fetch_miss);
    EXPECT_EQ(governed.cache_stats.data_hit, plain.cache_stats.data_hit);
    EXPECT_EQ(governed.cache_stats.data_miss, plain.cache_stats.data_miss);
  }
}

// Cancel from another thread mid-analysis: the run must unwind with
// CancelledError, and the time from cancel() to the throw must stay
// under the 50 ms latency target (checkpoints are per worklist pop /
// pivot batch / B&B node, so the real figure is microseconds).
TEST(Budgets, CancelReturnsWithinLatencyTarget) {
  const auto built = mcc::compile_program(synthetic_program(64, 3));
  const Analyzer analyzer(built.image, mem::typical_hw());

  CancelToken token;
  AnalysisOptions options;
  options.threads = 4;
  options.budget.cancel = &token;

  std::atomic<bool> started{false};
  std::atomic<bool> cancelled_seen{false};
  std::atomic<std::int64_t> return_ns{0};
  std::thread worker([&] {
    started.store(true);
    try {
      const WcetReport report = analyzer.analyze(options);
      // Legal only if the whole analysis beat the cancel request.
      (void)report;
    } catch (const CancelledError&) {
      cancelled_seen.store(true);
    }
    return_ns.store(CancelToken::now_ns());
  });

  while (!started.load()) std::this_thread::yield();
  // Arg(64) runs ~20 ms; fire a few ms in so the analysis is mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  token.cancel();
  const std::int64_t cancel_ns = CancelToken::now_ns();
  worker.join();

  ASSERT_TRUE(cancelled_seen.load()) << "analysis finished before the cancel landed; "
                                        "grow the workload or shorten the delay";
  const std::int64_t latency_ms = (return_ns.load() - cancel_ns) / 1000000;
  EXPECT_LT(latency_ms, 50) << "cancel latency " << latency_ms << " ms";
}

// After a cancelled run the token can be reset and the same analyzer
// reused: cancellation must not poison any shared state.
TEST(Budgets, AnalyzerSurvivesCancellation) {
  CancelToken token;
  token.cancel();
  AnalysisBudget budget;
  budget.cancel = &token;
  EXPECT_THROW(run_with(budget), CancelledError);

  token.reset();
  const WcetReport report = run_with(budget);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.wcet_cycles, exact_report().wcet_cycles);
  EXPECT_EQ(report.bcet_cycles, exact_report().bcet_cycles);
}

} // namespace
} // namespace wcet
