// The Figure-1 driver (wcet/pipeline.hpp, `run_figure1`): per-phase
// timing and the entry check through both front ends, and — most
// importantly — bit-identical results across ANY worker count of the
// thread pool:
// the per-instance value-analysis rounds, the decomposed IPET solve,
// and the classification sweeps all use deterministic schedules, so
// parallel and sequential runs must agree on every computed bound,
// obstruction and abstract state.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"
#include "serve/analysis_server.hpp"
#include "support/thread_pool.hpp"
#include "tests/front_half.hpp"
#include "wcet/pipeline.hpp"

namespace wcet {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool basics.

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SequentialFallbackAndReuse) {
  ThreadPool pool(1);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);

  ThreadPool big(3);
  for (int round = 0; round < 50; ++round) { // pool survives many jobs
    std::vector<int> out(64, -1);
    big.parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
    for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) throw AnalysisError("boom");
                                 }),
               AnalysisError);
  // Pool must still be usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

// ---------------------------------------------------------------------------
// The Figure-1 driver, through both of its callers.

// A constant function pointer: round-0 decode cannot resolve the jalr,
// value analysis collapses the target, and the driver re-decodes — so
// the decode and value buckets accumulate over two rounds.
const char* feedback_program = R"(
int buf[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int inc(int x) { return x + buf[x & 7]; }
int main(void) {
  int (*op)(int);
  int i;
  int s = 0;
  op = inc;
  for (i = 0; i < 5; i++) {
    s = op(s);
  }
  return s;
}
)";

void expect_driver_timings(const PhaseTimings& t, const std::string& what) {
  EXPECT_GT(t.decode_ms, 0.0) << what;
  EXPECT_GT(t.value_ms, 0.0) << what;
  EXPECT_EQ(t.validate_ms, 0.0) << what << ": validate must not run without the option";
  const double phases = t.decode_ms + t.value_ms + t.loop_ms + t.cache_ms + t.pipeline_ms +
                        t.path_ms + t.validate_ms;
  EXPECT_LE(phases, t.total_ms) << what;
}

TEST(Figure1Driver, AnalyzerAndServerAgreeOnFeedbackProgram) {
  const auto built = mcc::compile_program(feedback_program);
  const Analyzer analyzer(built.image, mem::typical_hw());
  const WcetReport direct = analyzer.analyze();
  ASSERT_TRUE(direct.ok) << direct.to_string();
  expect_driver_timings(direct.timings, "Analyzer::analyze");

  serve::AnalysisServer server(mem::typical_hw());
  const WcetReport served = server.submit(built.image);
  ASSERT_TRUE(served.ok) << served.to_string();
  expect_driver_timings(served.timings, "AnalysisServer::submit");
  EXPECT_EQ(served.wcet_cycles, direct.wcet_cycles);
  EXPECT_EQ(served.bcet_cycles, direct.bcet_cycles);
  EXPECT_EQ(served.wcet_block_counts, direct.wcet_block_counts);
  EXPECT_EQ(served.obstructions, direct.obstructions);
}

TEST(Figure1Driver, ServerRejectsImageWithoutEntryWord) {
  serve::AnalysisServer server(mem::typical_hw());
  EXPECT_THROW(server.submit(isa::Image{}), InputError);
  EXPECT_EQ(server.stats().cold_runs, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism across worker counts.

std::string call_tree_program(int functions, int loops_per_function) {
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

// A call inside a loop: the callee instance is re-analyzed across
// instance rounds (cross-instance feedback) and is NOT collapsible by
// the IPET decomposition — exercises the mixed path.
const char* loop_call_program = R"(
int acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
int step(int base) {
  int j;
  int s = base;
  for (j = 0; j < 5; j++) {
    s += acc[(s + j) & 7];
  }
  return s;
}
int main(void) {
  int i;
  int total = 0;
  for (i = 0; i < 6; i++) {
    total += step(total);
  }
  return total;
}
)";

// Unannotated recursion: analysis must refuse a bound with the same
// obstruction list at every worker count.
const char* recursive_program = R"(
int down(int n) {
  if (n > 0) {
    return down(n - 1);
  }
  return 0;
}
int main(void) { return down(9); }
)";

void expect_identical_reports(const WcetReport& a, const WcetReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.wcet_cycles, b.wcet_cycles) << what;
  EXPECT_EQ(a.bcet_cycles, b.bcet_cycles) << what;
  EXPECT_EQ(a.obstructions, b.obstructions) << what;
  EXPECT_EQ(a.wcet_block_counts, b.wcet_block_counts) << what;
  EXPECT_EQ(a.bounded_loops, b.bounded_loops) << what;
  ASSERT_EQ(a.loops.size(), b.loops.size()) << what;
  for (std::size_t i = 0; i < a.loops.size(); ++i) {
    EXPECT_EQ(a.loops[i].used_bound, b.loops[i].used_bound) << what << " loop " << i;
    EXPECT_EQ(a.loops[i].detail, b.loops[i].detail) << what << " loop " << i;
  }
  EXPECT_EQ(a.cache_stats.fetch_hit, b.cache_stats.fetch_hit) << what;
  EXPECT_EQ(a.cache_stats.fetch_miss, b.cache_stats.fetch_miss) << what;
  EXPECT_EQ(a.cache_stats.data_hit, b.cache_stats.data_hit) << what;
  EXPECT_EQ(a.cache_stats.data_miss, b.cache_stats.data_miss) << what;
  EXPECT_EQ(a.cache_stats.persistent, b.cache_stats.persistent) << what;
}

TEST(ParallelAnalysis, BitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> sources = {call_tree_program(12, 3), loop_call_program,
                                            recursive_program};
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto built = mcc::compile_program(sources[s]);
    const Analyzer analyzer(built.image, mem::typical_hw());
    AnalysisOptions options;
    options.threads = 1;
    const WcetReport sequential = analyzer.analyze(options);
    for (const int threads : {2, 8}) {
      options.threads = threads;
      const WcetReport parallel = analyzer.analyze(options);
      std::ostringstream what;
      what << "program " << s << " threads " << threads;
      expect_identical_reports(sequential, parallel, what.str());
    }
  }
}

TEST(ParallelAnalysis, RepeatedParallelRunsAreDeterministic) {
  const auto built = mcc::compile_program(call_tree_program(12, 3));
  const Analyzer analyzer(built.image, mem::typical_hw());
  AnalysisOptions options;
  options.threads = 4;
  const WcetReport first = analyzer.analyze(options);
  ASSERT_TRUE(first.ok) << first.to_string();
  for (int run = 0; run < 3; ++run) {
    const WcetReport again = analyzer.analyze(options);
    expect_identical_reports(first, again, "repeat run");
  }
}

TEST(ParallelAnalysis, ParallelBoundsMatchSimulation) {
  const auto built = mcc::compile_program(call_tree_program(8, 2));
  const mem::HwConfig hw = mem::typical_hw();
  const Analyzer analyzer(built.image, hw);
  AnalysisOptions options;
  options.threads = 4;
  const WcetReport report = analyzer.analyze(options);
  ASSERT_TRUE(report.ok) << report.to_string();
  sim::Simulator sim(built.image, hw);
  const auto check = check_bounds(report, sim);
  EXPECT_TRUE(check.sound()) << "observed " << check.observed_cycles << " not in ["
                             << check.bcet_bound << ", " << check.wcet_bound << "]";
}

// ---------------------------------------------------------------------------
// Decomposed vs monolithic IPET and the shared transfer cache.

struct Pipeline : testshapes::FrontHalf {
  explicit Pipeline(const std::string& source)
      : FrontHalf(mcc::compile_program(source).image) {}
};

TEST(IpetDecomposition, MatchesMonolithicSolve) {
  Pipeline p(call_tree_program(12, 3));
  analysis::CacheAnalysis caches(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache,
                                 p.hw.dcache, analysis::CacheAnalysis::Schedule::priority,
                                 p.schedule, &p.transfers, nullptr);
  caches.run();
  analysis::PipelineAnalysis pipeline(p.sg, p.values, caches, p.hw);
  pipeline.run();
  analysis::LoopBoundAnalysis loop_analysis(p.sg, p.loops, p.doms, p.values, &p.transfers);
  const auto loop_results = loop_analysis.run();
  analysis::IpetOptions options;
  for (const auto& lr : loop_results) {
    if (lr.bound) options.loop_bounds[lr.loop_id] = *lr.bound;
  }

  analysis::Ipet ipet(p.sg, p.loops, p.values, pipeline);
  options.decomposition = analysis::IpetDecomposition::recursive;
  const auto [recursive_wcet, recursive_bcet] = ipet.solve_both(options);
  options.decomposition = analysis::IpetDecomposition::monolithic;
  const auto [monolithic_wcet, monolithic_bcet] = ipet.solve_both(options);
  ASSERT_TRUE(recursive_wcet.ok());
  ASSERT_TRUE(recursive_bcet.ok());
  ASSERT_TRUE(monolithic_wcet.ok());
  ASSERT_TRUE(monolithic_bcet.ok());
  EXPECT_GT(recursive_wcet.decomposed_regions, 0) << "decomposition did not trigger";
  EXPECT_EQ(recursive_wcet.bound, monolithic_wcet.bound) << "WCET bound diverged";
  EXPECT_EQ(recursive_bcet.bound, monolithic_bcet.bound) << "BCET bound diverged";
  EXPECT_LT(monolithic_bcet.bound, monolithic_wcet.bound);
  EXPECT_EQ(monolithic_wcet.decomposed_regions, 0);
  EXPECT_EQ(monolithic_wcet.sub_ilps, 0);
}

TEST(TransferCache, OutStatesMatchRecomputedTransfers) {
  Pipeline p(call_tree_program(4, 2));
  for (const cfg::SgNode& node : p.sg.nodes()) {
    const analysis::AbsState recomputed =
        p.values.transfer_node(node.id, p.values.state_in(node.id));
    const analysis::AbsState& cached = p.transfers.out_state(node.id);
    if (recomputed.bottom) {
      EXPECT_TRUE(cached.bottom) << "node " << node.id;
      continue;
    }
    EXPECT_TRUE(cached == recomputed) << "node " << node.id;
  }
}

TEST(TransferCache, EdgeStatesMatchRecomputedRefinement) {
  Pipeline p(call_tree_program(4, 2));
  for (const cfg::SgEdge& edge : p.sg.edges()) {
    const analysis::AbsState& cached = p.transfers.edge_state(edge.id);
    if (!p.values.edge_feasible(edge.id)) {
      EXPECT_TRUE(cached.bottom) << "edge " << edge.id;
      continue;
    }
    analysis::AbsState recomputed =
        p.values.transfer_node(edge.from, p.values.state_in(edge.from));
    recomputed = p.values.refine_along_edge(edge.id, std::move(recomputed));
    EXPECT_TRUE(cached == recomputed) << "edge " << edge.id;
  }
}

// The instance-DAG exports the schedulers rely on.
TEST(Supergraph, InstanceDagExports) {
  Pipeline p(call_tree_program(4, 1));
  const std::vector<int> topo = p.sg.instance_topo_order();
  ASSERT_EQ(topo.size(), p.sg.instances().size());
  std::set<int> seen;
  for (const int instance : topo) {
    const int caller = p.sg.instances()[static_cast<std::size_t>(instance)].caller_instance;
    if (caller >= 0) EXPECT_TRUE(seen.count(caller)) << "caller after callee";
    seen.insert(instance);
  }
  std::size_t covered = 0;
  for (std::size_t i = 0; i < p.sg.instances().size(); ++i) {
    const auto& nodes = p.sg.instance_nodes(static_cast<int>(i));
    covered += nodes.size();
    const int entry = p.sg.instance_entry_node(static_cast<int>(i));
    ASSERT_GE(entry, 0);
    EXPECT_EQ(p.sg.node(entry).instance, static_cast<int>(i));
    for (const int n : nodes) EXPECT_EQ(p.sg.node(n).instance, static_cast<int>(i));
  }
  EXPECT_EQ(covered, p.sg.nodes().size());
  for (const cfg::SgEdge& edge : p.sg.edges()) {
    const bool cross = p.sg.node(edge.from).instance != p.sg.node(edge.to).instance;
    EXPECT_EQ(p.sg.is_cross_instance(edge.id), cross);
    if (cross) {
      EXPECT_TRUE(edge.kind == cfg::EdgeKind::call || edge.kind == cfg::EdgeKind::ret);
    }
  }
}

} // namespace
} // namespace wcet
