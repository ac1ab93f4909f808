// The pass-manager pipeline (wcet/pipeline.hpp): registration-time
// input/output validation, per-phase timing, and — most importantly —
// bit-identical results across ANY worker count of the thread pool:
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
#include "support/pass_manager.hpp"
#include "support/thread_pool.hpp"
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
// PassManager scaffolding.

struct ToyContext {
  std::vector<std::string> trace;
};

class ToyPass : public Pass<ToyContext> {
public:
  ToyPass(const char* name, std::vector<const char*> in, std::vector<const char*> out)
      : name_(name), in_(std::move(in)), out_(std::move(out)) {}
  const char* name() const override { return name_; }
  std::vector<const char*> inputs() const override { return in_; }
  std::vector<const char*> outputs() const override { return out_; }
  void run(ToyContext& ctx) override { ctx.trace.push_back(name_); }

private:
  const char* name_;
  std::vector<const char*> in_;
  std::vector<const char*> out_;
};

TEST(PassManager, RunsInOrderAndAccumulatesTimings) {
  PassManager<ToyContext> manager;
  manager.seed({"seed"});
  manager.add(std::make_unique<ToyPass>("a", std::vector<const char*>{"seed"},
                                        std::vector<const char*>{"x"}));
  manager.add(std::make_unique<ToyPass>("b", std::vector<const char*>{"x"},
                                        std::vector<const char*>{"y"}));
  ToyContext ctx;
  manager.run_all(ctx);
  manager.run_pass(ctx, 0); // decode-feedback style re-run accumulates
  ASSERT_EQ(ctx.trace, (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_GE(manager.timing_ms("a"), 0.0);
  EXPECT_EQ(manager.timings_ms().size(), 2u);
}

TEST(PassManager, RejectsUnsatisfiedInputsAtRegistration) {
  PassManager<ToyContext> manager;
  manager.seed({"seed"});
  EXPECT_THROW(manager.add(std::make_unique<ToyPass>(
                   "needs-missing", std::vector<const char*>{"not-produced"},
                   std::vector<const char*>{})),
               AnalysisError);
}

TEST(PassManager, Figure1RegistrationIsWellFormed) {
  AnalysisPassManager manager;
  const std::size_t back_half = register_figure1_passes(manager);
  EXPECT_EQ(manager.size(), 7u);
  EXPECT_EQ(back_half, 2u); // decode + value run inside the feedback loop
  EXPECT_STREQ(manager.pass(0).name(), "decode");
  EXPECT_STREQ(manager.pass(5).name(), "path");
  EXPECT_STREQ(manager.pass(6).name(), "validate");
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
  const auto check = check_bounds(built.image, hw, report, sim);
  EXPECT_TRUE(check.sound()) << "observed " << check.observed_cycles << " not in ["
                             << check.bcet_bound << ", " << check.wcet_bound << "]";
}

// ---------------------------------------------------------------------------
// Decomposed vs monolithic IPET and the shared transfer cache.

struct Pipeline {
  mcc::CompileResult built;
  mem::HwConfig hw;
  cfg::Program program;
  cfg::Supergraph sg;
  cfg::LoopForest loops;
  cfg::Dominators doms;
  analysis::TransferCache transfers;
  analysis::ValueAnalysis values;

  explicit Pipeline(const std::string& source)
      : built(mcc::compile_program(source)), hw(mem::typical_hw()),
        program(cfg::Program::reconstruct(built.image, built.image.entry(), {})),
        sg(cfg::Supergraph::expand(program)), loops(sg), doms(sg), transfers(sg),
        values(sg, loops, hw.memory) {
    values.run(nullptr, &transfers);
  }
};

TEST(IpetDecomposition, MatchesMonolithicSolve) {
  Pipeline p(call_tree_program(12, 3));
  analysis::CacheAnalysis caches(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache,
                                 p.hw.dcache);
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
