// The shared fixpoint engine (support/fixpoint.hpp): worklist ordering,
// engine-vs-round-robin fixpoint equivalence, and cross-run determinism
// of the analysis phases that ride on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"
#include "support/fixpoint.hpp"
#include "tests/front_half.hpp"

namespace wcet {
namespace {

TEST(PriorityWorklist, PopsInPriorityOrder) {
  PriorityWorklist wl({3, 0, 2, 1});
  wl.push(0);
  wl.push(2);
  wl.push(1);
  wl.push(3);
  EXPECT_EQ(wl.pop(), 1); // priority 0
  EXPECT_EQ(wl.pop(), 3); // priority 1
  EXPECT_EQ(wl.pop(), 2); // priority 2
  EXPECT_EQ(wl.pop(), 0); // priority 3
  EXPECT_EQ(wl.pop(), -1);
}

TEST(PriorityWorklist, DuplicatePushIsNoOpAndRepushWorks) {
  PriorityWorklist wl({0, 1, 2});
  wl.push(1);
  wl.push(1);
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.pop(), 1);
  // After popping a high-priority node, a later push of a lower
  // priority must still be served first (cursor reset).
  wl.push(2);
  wl.push(0);
  EXPECT_EQ(wl.pop(), 0);
  EXPECT_EQ(wl.pop(), 2);
  EXPECT_TRUE(wl.empty());
}

// A tiny monotone dataflow problem over the saturating-max lattice
// {0..cap}: out(n) = min(in(n) + gain(n), cap), in(n) = max over
// predecessors' out. Finite chains, monotone transfer — the engine
// contract. The fixpoint must be schedule-independent.
struct ToyGraph {
  // succ[n] = successor node ids; gain per node.
  std::vector<std::vector<int>> succ;
  std::vector<int> gain;
  int cap = 100;
  int entry = 0;
};

std::vector<int> toy_fixpoint_engine(const ToyGraph& g, std::vector<int> priority) {
  std::vector<int> in(g.succ.size(), -1); // -1 = bottom (unreached)
  PriorityWorklist wl(std::move(priority));
  in[static_cast<std::size_t>(g.entry)] = 0;
  wl.push(g.entry);
  run_fixpoint(wl, nullptr, [&](const int node) {
    const int out =
        std::min(in[static_cast<std::size_t>(node)] + g.gain[static_cast<std::size_t>(node)],
                 g.cap);
    for (const int s : g.succ[static_cast<std::size_t>(node)]) {
      if (out > in[static_cast<std::size_t>(s)]) {
        in[static_cast<std::size_t>(s)] = out;
        wl.push(s);
      }
    }
  });
  return in;
}

std::vector<int> toy_fixpoint_round_robin(const ToyGraph& g) {
  std::vector<int> in(g.succ.size(), -1);
  in[static_cast<std::size_t>(g.entry)] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t n = 0; n < g.succ.size(); ++n) {
      if (in[n] < 0) continue;
      const int out = std::min(in[n] + g.gain[n], g.cap);
      for (const int s : g.succ[n]) {
        if (out > in[static_cast<std::size_t>(s)]) {
          in[static_cast<std::size_t>(s)] = out;
          changed = true;
        }
      }
    }
  }
  return in;
}

TEST(FixpointEngine, MatchesRoundRobinOnCyclicGraph) {
  // Diamond with a back edge (a loop) and an unreachable node.
  ToyGraph g;
  g.succ = {{1, 2}, {3}, {3}, {1, 4}, {}, {4}}; // node 5 unreachable
  g.gain = {1, 2, 7, 3, 1, 9};
  const std::vector<int> reference = toy_fixpoint_round_robin(g);
  // Any priority assignment must reach the same fixpoint.
  EXPECT_EQ(toy_fixpoint_engine(g, {0, 1, 2, 3, 4, 5}), reference);
  EXPECT_EQ(toy_fixpoint_engine(g, {5, 4, 3, 2, 1, 0}), reference);
  EXPECT_EQ(toy_fixpoint_engine(g, {2, 0, 1, 0, 2, 1}), reference);
  EXPECT_EQ(reference[4], g.cap); // sanity: the loop saturates
  EXPECT_EQ(reference[5], -1);    // unreachable stays bottom
}

// ----------------------------------------------------------------------
// Whole-phase checks on example-style programs (the mcc tasks the
// examples/ drivers analyze).

constexpr const char* quickstart_task = R"(
int table[10] = {4, 8, 15, 16, 23, 42, 5, 9, 27, 31};

int weighted_sum(void) {
  int s = 0;
  int i;
  for (i = 0; i < 10; i++) {
    s += table[i] * (i + 1);
  }
  return s;
}

int main(void) { return weighted_sum(); }
)";

constexpr const char* nested_branchy_task = R"(
int grid[24] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8,
                9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4};

int scan(int threshold) {
  int hits = 0;
  int r;
  for (r = 0; r < 4; r++) {
    int c;
    for (c = 0; c < 6; c++) {
      int v = grid[r * 6 + c];
      if (v > threshold) {
        hits += v;
      } else {
        hits += 1;
      }
    }
  }
  return hits;
}

int main(void) { return scan(4); }
)";

struct AnalyzedProgram : testshapes::FrontHalf {
  explicit AnalyzedProgram(const char* source)
      : FrontHalf(mcc::compile_program(source).image) {}
};

void expect_same_cache_fixpoint(const char* source) {
  AnalyzedProgram p(source);

  analysis::CacheAnalysis fast(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache,
                               p.hw.dcache, analysis::CacheAnalysis::Schedule::priority,
                               p.schedule, &p.transfers, nullptr);
  fast.run();
  analysis::CacheAnalysis reference(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache,
                                    p.hw.dcache,
                                    analysis::CacheAnalysis::Schedule::round_robin,
                                    p.schedule, &p.transfers, nullptr);
  reference.run();

  for (const cfg::SgNode& node : p.sg.nodes()) {
    const auto& ff = fast.fetch_classes(node.id);
    const auto& rf = reference.fetch_classes(node.id);
    ASSERT_EQ(ff.size(), rf.size()) << "node " << node.id;
    for (std::size_t i = 0; i < ff.size(); ++i) {
      EXPECT_EQ(ff[i].cls, rf[i].cls) << "node " << node.id << " inst " << i;
      EXPECT_EQ(ff[i].persistent_loop, rf[i].persistent_loop)
          << "node " << node.id << " inst " << i;
    }
    const auto& fd = fast.data_classes(node.id);
    const auto& rd = reference.data_classes(node.id);
    ASSERT_EQ(fd.size(), rd.size()) << "node " << node.id;
    for (std::size_t i = 0; i < fd.size(); ++i) {
      EXPECT_EQ(fd[i].cls, rd[i].cls) << "node " << node.id << " access " << i;
      EXPECT_EQ(fd[i].persistent_loop, rd[i].persistent_loop)
          << "node " << node.id << " access " << i;
      EXPECT_EQ(fd[i].candidate_count, rd[i].candidate_count)
          << "node " << node.id << " access " << i;
    }
  }

  const auto fs = fast.stats();
  const auto rs = reference.stats();
  EXPECT_EQ(fs.fetch_hit, rs.fetch_hit);
  EXPECT_EQ(fs.fetch_miss, rs.fetch_miss);
  EXPECT_EQ(fs.fetch_nc, rs.fetch_nc);
  EXPECT_EQ(fs.fetch_uncached, rs.fetch_uncached);
  EXPECT_EQ(fs.data_hit, rs.data_hit);
  EXPECT_EQ(fs.data_miss, rs.data_miss);
  EXPECT_EQ(fs.data_nc, rs.data_nc);
  EXPECT_EQ(fs.data_uncached, rs.data_uncached);
  EXPECT_EQ(fs.persistent, rs.persistent);
}

TEST(FixpointEngine, CacheAnalysisMatchesRoundRobinReference) {
  // The cache domain has no widening, so the fixpoint is provably
  // schedule-independent: the priority engine must reproduce the
  // reference round-robin iteration exactly.
  expect_same_cache_fixpoint(quickstart_task);
  expect_same_cache_fixpoint(nested_branchy_task);
}

void expect_deterministic_value_analysis(const char* source) {
  AnalyzedProgram p(source);
  analysis::TransferCache again_transfers(p.sg);
  analysis::ValueAnalysis again(p.sg, p.loops, p.hw.memory, {}, p.schedule);
  again.run(nullptr, &again_transfers);

  for (const cfg::SgNode& node : p.sg.nodes()) {
    EXPECT_TRUE(p.values.state_in(node.id) == again.state_in(node.id)) << "node " << node.id;
    const auto& a = p.values.accesses(node.id);
    const auto& b = again.accesses(node.id);
    ASSERT_EQ(a.size(), b.size()) << "node " << node.id;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pc, b[i].pc);
      EXPECT_EQ(a[i].is_store, b[i].is_store);
      EXPECT_EQ(a[i].addr, b[i].addr);
    }
  }
  for (const cfg::SgEdge& edge : p.sg.edges()) {
    EXPECT_EQ(p.values.edge_feasible(edge.id), again.edge_feasible(edge.id))
        << "edge " << edge.id;
  }
}

TEST(FixpointEngine, ValueAnalysisIsDeterministicAcrossRuns) {
  // Stable iteration order after the flat-container switch: two
  // identical runs must agree on every abstract state bit-for-bit.
  expect_deterministic_value_analysis(quickstart_task);
  expect_deterministic_value_analysis(nested_branchy_task);
}

TEST(FixpointEngine, WholeAnalyzerIsDeterministicAcrossRuns) {
  for (const char* source : {quickstart_task, nested_branchy_task}) {
    const auto built = mcc::compile_program(source);
    const Analyzer analyzer(built.image, mem::typical_hw());
    const WcetReport first = analyzer.analyze();
    const WcetReport second = analyzer.analyze();
    ASSERT_TRUE(first.ok) << first.to_string();
    EXPECT_EQ(first.wcet_cycles, second.wcet_cycles);
    EXPECT_EQ(first.bcet_cycles, second.bcet_cycles);
    EXPECT_EQ(first.wcet_block_counts, second.wcet_block_counts);
  }
}

} // namespace
} // namespace wcet
