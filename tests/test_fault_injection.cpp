// Fault matrix: every named injection site × every failure action must
// leave the analyzer through a *classified* path — a typed InputError /
// AnalysisError, a CancelledError, or a sound flagged degradation —
// never a crash, a hang, or a silently tighter bound.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "serve/analysis_server.hpp"
#include "support/budget.hpp"
#include "support/fault_inject.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {
namespace {

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
  static const isa::Image image = mcc::compile_program(synthetic_program(4, 3)).image;
  return image;
}

// Second image for the serve round trip below: submitting it between
// two submissions of test_image() under a capacity-1 report cache
// forces one eviction per analyze() call.
const isa::Image& variant_image() {
  static const isa::Image image = mcc::compile_program(synthetic_program(3, 2)).image;
  return image;
}

// Disarm on every exit path so one failed expectation cannot leave a
// live fault armed for the next test.
struct DisarmGuard {
  ~DisarmGuard() {
    fault::Registry::instance().disarm();
    fault::Registry::instance().trace(false);
  }
};

// The workload routes through the analysis server so the serve:*
// sites (request admission, report-cache eviction) lie on the fault
// path alongside every pipeline site. Capacity 1 + an interleaved
// variant image forces an eviction mid-sequence, and the final
// submission re-analyzes test_image() cold — a cancel token fired at
// either serve site is observed by a governor before analyze() returns.
WcetReport analyze(CancelToken* token = nullptr, int threads = 1) {
  serve::ServeOptions options;
  options.analysis.threads = threads;
  options.analysis.budget.cancel = token;
  options.report_cache_capacity = 1;
  serve::AnalysisServer server(mem::typical_hw(), options);
  server.submit(test_image());
  server.submit(variant_image());
  return server.submit(test_image());
}

const WcetReport& oracle() {
  static const WcetReport report = analyze();
  return report;
}

// The workload must actually reach every advertised site, otherwise the
// matrix below silently tests nothing.
TEST(FaultInjection, WorkloadVisitsEveryKnownSite) {
  DisarmGuard guard;
  auto& registry = fault::Registry::instance();
  registry.clear_visited();
  registry.trace(true);
  const WcetReport report = analyze();
  registry.trace(false);
  ASSERT_TRUE(report.ok);
  const std::set<std::string> visited = registry.visited();
  for (const std::string& site : fault::known_sites()) {
    EXPECT_TRUE(visited.count(site) != 0) << "site never visited: " << site;
  }
}

TEST(FaultInjection, EverySiteEveryActionIsClassified) {
  auto& registry = fault::Registry::instance();
  for (const std::string& site : fault::known_sites()) {
    for (const fault::Action action :
         {fault::Action::throw_input, fault::Action::throw_analysis,
          fault::Action::throw_bad_alloc, fault::Action::cancel}) {
      DisarmGuard guard;
      CancelToken token;
      registry.arm(site, action, 0, &token);

      bool classified = false;
      std::string what;
      try {
        const WcetReport report = analyze(&token);
        // An injection the analysis absorbed must be flagged: either
        // the run degraded soundly (ledger non-empty, bound no tighter
        // than the oracle) or the site genuinely did not fire.
        if (registry.fired()) {
          ASSERT_TRUE(report.ok);
          EXPECT_TRUE(report.degraded) << site << ": absorbed fault without a ledger entry";
          EXPECT_GE(report.wcet_cycles, oracle().wcet_cycles) << site;
          EXPECT_LE(report.bcet_cycles, oracle().bcet_cycles) << site;
        }
        classified = true;
      } catch (const CancelledError& e) {
        classified = true;
        what = e.what();
        EXPECT_EQ(action, fault::Action::cancel) << site << ": unexpected cancel: " << what;
      } catch (const InputError& e) {
        classified = true;
        what = e.what();
        EXPECT_EQ(action, fault::Action::throw_input) << site << ": " << what;
        EXPECT_NE(what.find(site), std::string::npos) << what;
      } catch (const AnalysisError& e) {
        classified = true;
        what = e.what();
        if (action == fault::Action::throw_bad_alloc) {
          EXPECT_NE(what.find("out of memory"), std::string::npos) << site << ": " << what;
        } else {
          EXPECT_EQ(action, fault::Action::throw_analysis) << site << ": " << what;
          EXPECT_NE(what.find(site), std::string::npos) << what;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << site << ": unclassified exception: " << e.what();
      }
      EXPECT_TRUE(classified) << site;
      EXPECT_TRUE(registry.fired()) << "site armed but never fired: " << site;
    }
  }
}

// The countdown makes mid-flight injection deterministic: skipping N
// visits fires on the (N+1)-th, well inside the fixpoint.
TEST(FaultInjection, SkipCountFiresMidAnalysis) {
  DisarmGuard guard;
  auto& registry = fault::Registry::instance();
  registry.arm("value:round", fault::Action::throw_analysis, 2);
  try {
    analyze();
    FAIL() << "fault never fired";
  } catch (const AnalysisError& e) {
    EXPECT_NE(std::string(e.what()).find("value:round"), std::string::npos) << e.what();
  }
}

// A fired fault must not poison the process: the very next analysis on
// the same image computes the untouched oracle bound.
TEST(FaultInjection, AnalyzerRecoversAfterInjectedFault) {
  {
    DisarmGuard guard;
    fault::Registry::instance().arm("phase:cache", fault::Action::throw_analysis);
    EXPECT_THROW(analyze(), AnalysisError);
  }
  const WcetReport report = analyze();
  ASSERT_TRUE(report.ok);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.wcet_cycles, oracle().wcet_cycles);
  EXPECT_EQ(report.bcet_cycles, oracle().bcet_cycles);
}

// The matrix again under the thread pool: worker-side unwinding (B&B
// expansions and ILP solves run on pool workers under decomposition)
// must classify identically.
TEST(FaultInjection, ParallelRunsClassifyIdentically) {
  auto& registry = fault::Registry::instance();
  for (const std::string& site : {std::string("ilp:solve"), std::string("bnb:node"),
                                  std::string("cache:round")}) {
    DisarmGuard guard;
    registry.arm(site, fault::Action::throw_analysis);
    try {
      analyze(nullptr, 8);
      FAIL() << site << ": fault never surfaced";
    } catch (const AnalysisError& e) {
      EXPECT_NE(std::string(e.what()).find(site), std::string::npos) << e.what();
    }
  }
}

} // namespace
} // namespace wcet
