// Analysis-server contract (src/serve): incremental warm re-analysis
// must be bit-identical to a cold run of the edited image, including
// when the warm cache start refuses an edit and the fixpoint runs
// cold, and the report cache must serve a request only when its image
// and annotation text both equal a cached request's.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "serve/analysis_server.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {
namespace {

// A data array, f and h around the given definition of g. main calls
// f, g and h in sequence, or with `g_in_loop` calls g inside a counted
// loop between f and h.
std::string program_around(const std::string& g_def, bool g_in_loop = false) {
  std::ostringstream os;
  os << "int data[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};\n";
  os << "int f(int x) { int i; int s = x;\n"
        "  for (i = 0; i < 5; i++) { s += data[(s + i) & 15]; }\n"
        "  return s; }\n";
  os << g_def;
  os << "int h(int x) { int i; int s = x;\n"
        "  for (i = 0; i < 4; i++) { s += data[(s ^ i) & 15]; }\n"
        "  return s; }\n";
  if (g_in_loop) {
    os << "int main(void) { int i; int t = 1; t += f(t);\n"
          "  for (i = 0; i < 3; i++) { t += g(t); }\n"
          "  t += h(t); return t; }\n";
  } else {
    os << "int main(void) { int t = 1; t += f(t); t += g(t); t += h(t); return t; }\n";
  }
  return os.str();
}

// main calls f, g, h sequentially — calls deliberately NOT inside any
// loop, so no loop spans a clean/dirty instance boundary and the warm
// cache fixpoint's structural guard admits the edit. Changing
// `g_bound` changes one comparison immediate only: the code layout
// (function addresses, block boundaries, instruction counts) is
// identical across variants, which is exactly the shape the
// per-instance clean check is built for. `extra_g_statement` adds
// one statement to g, shifting every later block address instead.
std::string calls_program(int g_bound, bool extra_g_statement = false) {
  std::ostringstream g;
  g << "int g(int x) { int i; int s = x;\n"
       "  for (i = 0; i < "
    << g_bound << "; i++) { s += data[(s + 2 * i) & 15]; }\n"
    << (extra_g_statement ? "  s += data[s & 15];\n" : "") << "  return s; }\n";
  return program_around(g.str());
}

// A g that adds one array element. data[4] == data[8] == 5, so the
// edit K = 4 -> 8 leaves every value state outside g unchanged (f, h
// and main stay clean after value verification), but the two words
// sit in different 16-byte cache lines, so g hands its callers a
// different data-cache state.
std::string lookup_program(int k, bool g_in_loop) {
  return program_around("int g(int x) { return x + data[" + std::to_string(k) + "]; }\n",
                        g_in_loop);
}

isa::Image compile(const std::string& source) {
  return mcc::compile_program(source).image;
}

void expect_same_bounds(const WcetReport& warm, const WcetReport& cold,
                        const std::string& label) {
  ASSERT_TRUE(warm.ok) << label;
  ASSERT_TRUE(cold.ok) << label;
  EXPECT_EQ(warm.wcet_cycles, cold.wcet_cycles) << label;
  EXPECT_EQ(warm.bcet_cycles, cold.bcet_cycles) << label;
  EXPECT_EQ(warm.wcet_block_counts, cold.wcet_block_counts) << label;
  EXPECT_EQ(warm.cache_stats.fetch_hit, cold.cache_stats.fetch_hit) << label;
  EXPECT_EQ(warm.cache_stats.fetch_miss, cold.cache_stats.fetch_miss) << label;
  EXPECT_EQ(warm.cache_stats.data_hit, cold.cache_stats.data_hit) << label;
  EXPECT_EQ(warm.cache_stats.data_miss, cold.cache_stats.data_miss) << label;
  EXPECT_EQ(warm.cache_stats.persistent, cold.cache_stats.persistent) << label;
  EXPECT_EQ(warm.ilp_variables, cold.ilp_variables) << label;
  EXPECT_EQ(warm.ilp_constraints, cold.ilp_constraints) << label;
}

// Edit one function, resubmit: the warm incremental run must produce
// bounds bit-identical to a from-scratch cold analysis of the edited
// image — across every IPET decomposition mode and a worker-count
// sweep. This is the acceptance oracle of the incremental path.
TEST(Serve, EditOneFunctionWarmEqualsCold) {
  const isa::Image base = compile(calls_program(6));
  const isa::Image edited = compile(calls_program(9));
  for (const analysis::IpetDecomposition mode :
       {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
    for (const int threads : {1, 2, 4, 8}) {
      std::ostringstream label;
      label << "mode=" << static_cast<int>(mode) << " threads=" << threads;

      serve::ServeOptions options;
      options.analysis.decomposition = mode;
      options.analysis.threads = threads;
      serve::AnalysisServer server(mem::typical_hw(), options);

      const WcetReport first = server.submit(base);
      ASSERT_TRUE(first.ok) << label.str();
      const WcetReport warm = server.submit(edited);

      // The edit must actually exercise the incremental machinery:
      // structure matched, exactly one instance (g) went dirty.
      EXPECT_EQ(server.stats().warm_runs, 1u) << label.str();
      EXPECT_EQ(server.stats().dirty_instances, 1u) << label.str();
      // The edit changed g's bound, so the two programs must not
      // accidentally share a WCET (that would make the oracle vacuous).
      EXPECT_NE(warm.wcet_cycles, first.wcet_cycles) << label.str();

      const Analyzer cold_analyzer(edited, mem::typical_hw());
      const WcetReport cold = cold_analyzer.analyze(options.analysis);
      expect_same_bounds(warm, cold, label.str());
    }
  }
}

// An edit that shifts code layout (one extra statement in g moves the
// addresses of everything after it) fails the structural-identity gate:
// the request runs cold and still matches a fresh analysis exactly.
TEST(Serve, LayoutEditRunsCold) {
  serve::AnalysisServer server(mem::typical_hw());
  const isa::Image base = compile(calls_program(6));
  const isa::Image shifted = compile(calls_program(6, /*extra_g_statement=*/true));
  const WcetReport first = server.submit(base);
  const WcetReport second = server.submit(shifted);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(server.stats().warm_runs, 0u);
  EXPECT_EQ(server.stats().cold_runs, 2u);
  const Analyzer cold_analyzer(shifted, mem::typical_hw());
  expect_same_bounds(second, cold_analyzer.analyze(), "layout edit");
}

// Submits lookup_program(4) then lookup_program(8) and checks the warm
// report against a cold analysis of the edited image.
serve::ServeStats submit_lookup_edit(bool g_in_loop, int threads, const std::string& label) {
  const isa::Image base = compile(lookup_program(4, g_in_loop));
  const isa::Image edited = compile(lookup_program(8, g_in_loop));
  serve::ServeOptions options;
  options.analysis.threads = threads;
  serve::AnalysisServer server(mem::typical_hw(), options);
  EXPECT_TRUE(server.submit(base).ok) << label;
  const WcetReport warm = server.submit(edited);
  EXPECT_EQ(server.stats().warm_runs, 1u) << label;
  EXPECT_EQ(server.stats().dirty_instances, 1u) << label;
  expect_same_bounds(warm, Analyzer(edited, mem::typical_hw()).analyze(options.analysis),
                     label);
  return server.stats();
}

// Divergence fallback: no loop spans g, so the warm cache start is
// attempted, but g's changed out-state reaches the clean instance of
// main. The warm states are discarded and the fixpoint re-runs cold.
TEST(Serve, WarmCacheDivergenceFallsBackCold) {
  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    const serve::ServeStats stats = submit_lookup_edit(false, threads, label);
    EXPECT_EQ(stats.warm_fallbacks, 1u) << label;
    EXPECT_EQ(stats.warm_cache_starts, 0u) << label;
  }
}

// Guard refusal: main's loop spans the clean instance of main and the
// dirty instance of g, so the warm cache start is not attempted at all.
// The request still runs warm (the path phase may reuse sub-ILPs).
TEST(Serve, WarmCacheGuardRefusesLoopAcrossEdit) {
  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    const serve::ServeStats stats = submit_lookup_edit(true, threads, label);
    EXPECT_EQ(stats.warm_cache_starts, 0u) << label;
    EXPECT_EQ(stats.warm_fallbacks, 0u) << label;
  }
}

// The constants of leaf 3 that the warm-edit tests vary. Each is one
// comparison or mask immediate, so an edit leaves the code layout
// identical while changing one path-analysis input of leaf 3: its
// second loop's bound, the data range (and so the cache timing) of its
// first loop, or which way its branch may go (`k > i` always holds for
// k = 9, so the fall-through edge becomes infeasible while every block
// stays reachable).
struct Leaf3 {
  int bound = 6;
  int mask = 15;
  int k = 2;
};

// Eight leaf functions with two counted loops each, called outside
// any loop: enough nodes for the IPET decomposition, which collapses
// every leaf into its own sub-ILP. Flat, main calls the leaves; nested,
// main calls four functions that each run a loop and call two leaves,
// so every leaf sub-ILP sits inside its caller's.
std::string leaves_program(const Leaf3& leaf3, bool nested) {
  std::ostringstream os;
  os << "int data[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};\n";
  for (int f = 0; f < 8; ++f) {
    const Leaf3 c = f == 3 ? leaf3 : Leaf3{5, 15, 2};
    os << "int leaf" << f << "(int x) { int i; int s = x;\n"
       << "  for (i = 0; i < " << 4 + f % 3 << "; i++) { s += data[(s + i) & " << c.mask
       << "]; }\n"
       << "  for (i = 0; i < " << c.bound << "; i++) { s += data[(s ^ i) & 15];\n"
       << "    if (" << c.k << " > i) { s += 1; } }\n"
       << "  return s; }\n";
  }
  for (int p = 0; nested && p < 4; ++p) {
    os << "int pair" << p << "(int x) { int i; int s = x;\n"
       << "  for (i = 0; i < 3; i++) { s += data[(s + 3 * i) & 15]; }\n"
       << "  s += leaf" << 2 * p << "(s);\n  s += leaf" << 2 * p + 1 << "(s);\n"
       << "  return s; }\n";
  }
  os << "int main(void) { int t = 1;\n";
  for (int f = 0; f < (nested ? 4 : 8); ++f) {
    os << "  t += " << (nested ? "pair" : "leaf") << f << "(t);\n";
  }
  os << "  return t; }\n";
  return os.str();
}

// Bounds plus everything the path phase reports about its solve.
void expect_same_path(const WcetReport& warm, const WcetReport& cold, const std::string& label) {
  expect_same_bounds(warm, cold, label);
  EXPECT_EQ(warm.ipet_sub_ilps, cold.ipet_sub_ilps) << label;
  EXPECT_EQ(warm.phase1_pivots, cold.phase1_pivots) << label;
  EXPECT_EQ(warm.phase2_pivots, cold.phase2_pivots) << label;
  EXPECT_EQ(warm.crash_basis_rows, cold.crash_basis_rows) << label;
}

// Everything a report states, except what measures the run itself:
// the phase timings, the governor's checkpoint count and the cache
// pass's join and set-image telemetry count work done, not results.
void expect_same_report(WcetReport warm, WcetReport cold, const std::string& label) {
  for (WcetReport* report : {&warm, &cold}) {
    report->timings = {};
    report->budget_checks = 0;
    report->cache_joins = 0;
    report->cache_join_skips = 0;
    report->set_image_allocs = 0;
    report->live_set_images_peak = 0;
  }
  EXPECT_TRUE(warm == cold) << label << "\nwarm:\n"
                            << warm.to_string() << "\ncold:\n"
                            << cold.to_string();
}

// Per-sub-ILP reuse on the warm path. With the report cache disabled, a
// byte-identical resubmission adopts every sub-ILP unsolved; an edit
// to one function re-solves exactly that function's sub-ILP, plus its
// caller's when nested (a changed child re-solves its ancestors). The
// edits alternate with the base program, so every warm run dirties
// leaf 3 alone. Every warm report equals a fresh analysis, at 1 and 4
// threads; a monolithic server has no sub-ILPs to reuse.
TEST(Serve, WarmEditReusesUntouchedSubIlps) {
  const Leaf3 base_leaf;
  const std::vector<Leaf3> edits = {{9, 15, 2}, {6, 1, 2}, {6, 15, 9}};
  for (const bool nested : {false, true}) {
    const isa::Image base = compile(leaves_program(base_leaf, nested));
    const int resolved = nested ? 2 : 1;
    for (const int threads : {1, 4}) {
      const std::string label =
          std::string(nested ? "nested" : "flat") + " threads=" + std::to_string(threads);
      serve::ServeOptions options;
      options.report_cache_capacity = 0; // force re-analysis on every request
      options.analysis.threads = threads;
      serve::AnalysisServer server(mem::typical_hw(), options);
      const WcetReport base_cold = Analyzer(base, mem::typical_hw()).analyze(options.analysis);
      ASSERT_GE(base_cold.ipet_sub_ilps, 8) << label;
      EXPECT_EQ(base_cold.ipet_depth, nested ? 2 : 1) << label;

      expect_same_path(server.submit(base), base_cold, label + " first");
      EXPECT_EQ(server.stats().path_reuses, 0u) << label;
      const WcetReport resubmit = server.submit(base);
      EXPECT_EQ(server.stats().dirty_instances, 0u) << label;
      EXPECT_EQ(server.stats().path_reuses,
                static_cast<std::uint64_t>(resubmit.ipet_sub_ilps))
          << label;
      expect_same_path(resubmit, base_cold, label + " resubmit");
      // Per-sub reuse does not depend on the cache warm start; check
      // that the warm cache fixpoint committed on its own.
      EXPECT_EQ(server.stats().warm_cache_starts, 1u) << label;
      EXPECT_EQ(server.stats().warm_fallbacks, 0u) << label;

      for (std::size_t e = 0; e < edits.size(); ++e) {
        const isa::Image edited = compile(leaves_program(edits[e], nested));
        const WcetReport edited_cold =
            Analyzer(edited, mem::typical_hw()).analyze(options.analysis);
        for (const bool back : {false, true}) {
          const std::string step =
              label + " edit " + std::to_string(e) + (back ? " undone" : "");
          const std::uint64_t before = server.stats().path_reuses;
          const std::uint64_t dirty_before = server.stats().dirty_instances;
          const WcetReport warm = server.submit(back ? base : edited);
          EXPECT_EQ(server.stats().dirty_instances - dirty_before, 1u) << step;
          EXPECT_EQ(server.stats().path_reuses - before,
                    static_cast<std::uint64_t>(warm.ipet_sub_ilps - resolved))
              << step;
          expect_same_path(warm, back ? base_cold : edited_cold, step);
          EXPECT_EQ(server.stats().warm_cache_starts, server.stats().warm_runs) << step;
          EXPECT_EQ(server.stats().warm_fallbacks, 0u) << step;
        }
      }
      EXPECT_EQ(server.stats().warm_runs, 1u + 2 * edits.size()) << label;
      EXPECT_EQ(server.stats().fingerprint_hits, 0u) << label; // cache was disabled
    }
  }

  const isa::Image base = compile(leaves_program(base_leaf, false));
  const isa::Image edited = compile(leaves_program(edits[0], false));
  serve::ServeOptions options;
  options.report_cache_capacity = 0;
  options.analysis.decomposition = analysis::IpetDecomposition::monolithic;
  serve::AnalysisServer server(mem::typical_hw(), options);
  const WcetReport base_cold = Analyzer(base, mem::typical_hw()).analyze(options.analysis);
  const WcetReport edited_cold = Analyzer(edited, mem::typical_hw()).analyze(options.analysis);
  expect_same_path(server.submit(base), base_cold, "monolithic first");
  expect_same_path(server.submit(base), base_cold, "monolithic resubmit");
  expect_same_path(server.submit(edited), edited_cold, "monolithic edit");
  EXPECT_EQ(server.stats().warm_runs, 2u);
  EXPECT_EQ(server.stats().path_reuses, 0u);
}

// A warm report equals a fresh Analyzer's in every field but the
// run's own measurements (expect_same_report): both IPET
// decompositions, one and four threads, flat and nested call trees,
// and each edit of WarmEditReusesUntouchedSubIlps, applied and undone.
TEST(Serve, WarmReportEqualsColdInEveryField) {
  const std::vector<Leaf3> edits = {{9, 15, 2}, {6, 1, 2}, {6, 15, 9}};
  for (const bool nested : {false, true}) {
    const isa::Image base = compile(leaves_program(Leaf3{}, nested));
    for (const analysis::IpetDecomposition mode :
         {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
      for (const int threads : {1, 4}) {
        const std::string label = std::string(nested ? "nested" : "flat") + " mode=" +
                                  std::to_string(static_cast<int>(mode)) +
                                  " threads=" + std::to_string(threads);
        serve::ServeOptions options;
        options.report_cache_capacity = 0;
        options.analysis.decomposition = mode;
        options.analysis.threads = threads;
        serve::AnalysisServer server(mem::typical_hw(), options);
        const WcetReport base_cold = Analyzer(base, mem::typical_hw()).analyze(options.analysis);
        expect_same_report(server.submit(base), base_cold, label + " first");
        for (std::size_t e = 0; e < edits.size(); ++e) {
          const isa::Image edited = compile(leaves_program(edits[e], nested));
          const WcetReport edited_cold =
              Analyzer(edited, mem::typical_hw()).analyze(options.analysis);
          for (const bool back : {false, true}) {
            expect_same_report(server.submit(back ? base : edited),
                               back ? base_cold : edited_cold,
                               label + " edit " + std::to_string(e) + (back ? " undone" : ""));
          }
        }
        EXPECT_EQ(server.stats().warm_runs, 2 * edits.size()) << label;
        EXPECT_EQ(server.stats().warm_fallbacks, 0u) << label;
      }
    }
  }
}

// A loop whose body loads a pointer from .rodata, reads through it and
// clears both registers before the block ends; after the loop the task
// reads tgt_a. Only the pointer word differs between the two variants.
std::string rodata_pointer_program(const char* target) {
  return std::string(R"(
        .global _start
_start: movi s0, 0
        movi s1, 4
loop:   la   t0, ptr
        lw   t1, 0(t0)
        lw   t1, 0(t1)
        movi t0, 0
        movi t1, 0
        addi s0, s0, 1
        blt  s0, s1, loop
        la   t2, tgt_a
        lw   a1, 0(t2)
        halt
        .rodata
ptr:    .word )") + target + R"(
        .data
tgt_a:  .word 1
        .space 60
tgt_b:  .word 2
)";
}

// A data-only edit keeps every code word and every value in-state
// equal, yet the loop's load moves from tgt_a's cache line to tgt_b's,
// so the read after the loop no longer always hits. The warm run must
// see that the access changed and re-analyze the instance.
TEST(Serve, DataOnlyEditChangesAccessLines) {
  const isa::Image base = isa::assemble(rodata_pointer_program("tgt_a"));
  const isa::Image edited = isa::assemble(rodata_pointer_program("tgt_b"));
  ASSERT_EQ(base.sections().size(), edited.sections().size());
  const WcetReport base_cold = Analyzer(base, mem::typical_hw()).analyze();
  const WcetReport edited_cold = Analyzer(edited, mem::typical_hw()).analyze();
  ASSERT_TRUE(base_cold.ok) << base_cold.to_string();
  ASSERT_NE(base_cold.wcet_cycles, edited_cold.wcet_cycles);
  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    serve::ServeOptions options;
    options.report_cache_capacity = 0;
    options.analysis.threads = threads;
    serve::AnalysisServer server(mem::typical_hw(), options);
    expect_same_report(server.submit(base), base_cold, label + " first");
    expect_same_report(server.submit(edited), edited_cold, label + " edit");
    expect_same_report(server.submit(base), base_cold, label + " undone");
    EXPECT_EQ(server.stats().warm_runs, 2u) << label;
    EXPECT_EQ(server.stats().dirty_instances, 0u) << label;
  }
}

// A loop whose exit branch compares the counter with a limit it loads
// from .rodata in the branch block itself. Only the limit word differs
// between the two variants: the loop's in-state stays equal (the
// counter is widened, the loaded register is unknown on entry) and so
// does its access list, but the value the branch reads does not.
std::string rodata_limit_program(int limit) {
  return R"(
        .global _start
_start: movi s0, 0
loop:   addi s0, s0, 1
        la   t0, limit
        lw   t1, 0(t0)
        bne  s0, t1, loop
        halt
        .rodata
limit:  .word )" + std::to_string(limit) + "\n";
}

// A node whose load reads a changed image word is not clean, so the
// loop's bound is re-derived rather than adopted.
TEST(Serve, DataOnlyEditChangesLoopLimit) {
  const isa::Image base = isa::assemble(rodata_limit_program(40));
  const isa::Image edited = isa::assemble(rodata_limit_program(41));
  const WcetReport base_cold = Analyzer(base, mem::typical_hw()).analyze();
  const WcetReport edited_cold = Analyzer(edited, mem::typical_hw()).analyze();
  ASSERT_TRUE(base_cold.ok) << base_cold.to_string();
  ASSERT_NE(base_cold.wcet_cycles, edited_cold.wcet_cycles);
  serve::ServeOptions options;
  options.report_cache_capacity = 0;
  serve::AnalysisServer server(mem::typical_hw(), options);
  expect_same_report(server.submit(base), base_cold, "first");
  expect_same_report(server.submit(edited), edited_cold, "edit");
  expect_same_report(server.submit(base), base_cold, "undone");
  EXPECT_EQ(server.stats().warm_runs, 2u);
  EXPECT_EQ(server.stats().dirty_instances, 0u);
}

// g's loop has two entry edges: i starts at 0 or at K. The back edge
// already brings every value from 1 up, so the loop header's in-state
// is the same for K = 3 and K = 4, but the counter's initial value
// (and with it the loop row's derivation) is not. The warm run must
// compare the entry-edge states, not just the loop's clean nodes.
std::string two_entry_loop_program(int k) {
  return program_around("int g(int x) { int i; int s = x;\n"
                        "  if (x & 1) { i = 0; } else { i = " +
                        std::to_string(k) +
                        "; }\n"
                        "  while (i < 10) { s += data[(s + i) & 15]; i++; }\n"
                        "  return s; }\n");
}

TEST(Serve, WarmLoopBoundComparesEntryEdgeStates) {
  const isa::Image base = compile(two_entry_loop_program(3));
  const isa::Image edited = compile(two_entry_loop_program(4));
  const WcetReport base_cold = Analyzer(base, mem::typical_hw()).analyze();
  const WcetReport edited_cold = Analyzer(edited, mem::typical_hw()).analyze();
  ASSERT_TRUE(base_cold.ok) << base_cold.to_string();
  ASSERT_EQ(base_cold.loops.size(), edited_cold.loops.size());
  bool row_differs = false;
  for (std::size_t l = 0; l < base_cold.loops.size(); ++l) {
    row_differs |= base_cold.loops[l].detail != edited_cold.loops[l].detail;
  }
  ASSERT_TRUE(row_differs);
  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    serve::ServeOptions options;
    options.report_cache_capacity = 0;
    options.analysis.threads = threads;
    serve::AnalysisServer server(mem::typical_hw(), options);
    expect_same_report(server.submit(base), base_cold, label + " first");
    expect_same_report(server.submit(edited), edited_cold, label + " edit");
    expect_same_report(server.submit(base), base_cold, label + " undone");
    EXPECT_EQ(server.stats().warm_runs, 2u) << label;
    EXPECT_GT(server.stats().loop_bounds_adopted, 0u) << label;
  }
}

// Resubmitting byte-identical input is served from the report cache:
// no pipeline run, hits counted in the server stats.
TEST(Serve, RepeatSubmissionHitsFingerprintCache) {
  serve::AnalysisServer server(mem::typical_hw());
  const isa::Image image = compile(calls_program(6));
  const WcetReport first = server.submit(image);
  const WcetReport second = server.submit(image);
  const WcetReport third = server.submit(image);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(second.wcet_cycles, first.wcet_cycles);
  EXPECT_EQ(third.wcet_cycles, first.wcet_cycles);
  EXPECT_EQ(server.stats().requests, 3u);
  EXPECT_EQ(server.stats().fingerprint_hits, 2u);
  EXPECT_EQ(server.stats().cold_runs, 1u);
  EXPECT_EQ(server.stats().warm_runs, 0u);       // nothing re-analyzed
  EXPECT_EQ(server.stats().dirty_instances, 0u);
}

// The report cache keys on the whole request, not on a flattening of
// it: `b` is `a` minus its last symbol, and the annotation text is that
// symbol's bytes in the order a flat image + text concatenation would
// emit them (name, NUL, LE addr, LE size, kind), so both requests
// flatten to the same byte string. The second request must be analyzed
// on its own — and its annotation text is malformed, so it fails
// exactly like a fresh Analyzer instead of returning `a`'s report.
TEST(Serve, ReportCacheMatchesWholeRequest) {
  serve::AnalysisServer server(mem::typical_hw());
  const isa::Image a = compile(calls_program(6));
  ASSERT_FALSE(a.symbols().empty());

  isa::Image b;
  for (const isa::Section& section : a.sections()) b.add_section(section);
  for (std::size_t i = 0; i + 1 < a.symbols().size(); ++i) b.add_symbol(a.symbols()[i]);
  b.set_entry(a.entry());

  const isa::Symbol& last = a.symbols().back();
  std::string text = last.name;
  text.push_back('\0');
  for (const std::uint32_t word : {last.addr, last.size}) {
    for (int shift = 0; shift < 32; shift += 8) {
      text.push_back(static_cast<char>((word >> shift) & 0xFFu));
    }
  }
  text.push_back(static_cast<char>(last.kind));

  ASSERT_TRUE(server.submit(a).ok);
  EXPECT_THROW((void)Analyzer(b, mem::typical_hw(), text), InputError);
  EXPECT_THROW((void)server.submit(b, text), InputError);
  EXPECT_EQ(server.stats().fingerprint_hits, 0u);
}

// Capacity-1 LRU: alternating two images evicts on every insert and
// never produces a cache hit; the reports stay correct throughout.
TEST(Serve, ReportCacheEvictsAtCapacity) {
  serve::ServeOptions options;
  options.report_cache_capacity = 1;
  serve::AnalysisServer server(mem::typical_hw(), options);
  const isa::Image a = compile(calls_program(6));
  const isa::Image b = compile(calls_program(9));
  const WcetReport ra1 = server.submit(a);
  const WcetReport rb = server.submit(b);
  const WcetReport ra2 = server.submit(a);
  ASSERT_TRUE(ra1.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_EQ(ra2.wcet_cycles, ra1.wcet_cycles);
  EXPECT_EQ(server.stats().fingerprint_hits, 0u);
  EXPECT_EQ(server.stats().evictions, 2u);
}

// Stats endpoint: the counters the CLI --stats flag prints must
// round-trip through to_string() (the daemon smoke test greps these).
TEST(Serve, StatsTextEndpoint) {
  serve::AnalysisServer server(mem::typical_hw());
  const isa::Image image = compile(calls_program(6));
  (void)server.submit(image);
  (void)server.submit(image);
  const std::string text = server.stats().to_string();
  EXPECT_NE(text.find("wcet_serve stats"), std::string::npos) << text;
  EXPECT_NE(text.find("requests: 2 (fingerprint hits 1"), std::string::npos) << text;
}

} // namespace
} // namespace wcet
