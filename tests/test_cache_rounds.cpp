// The per-instance round engine of the cache analysis
// (support/instance_rounds.hpp) and the memoized transfer recipes
// (analysis/transfer_cache.hpp): must/may classifications and computed
// WCET bounds must be bit-identical for every thread-pool worker count
// — the must/may domain has no widening, so the least fixpoint is
// schedule-independent and the deterministic round/merge order pins
// every intermediate state — and a cached recipe must classify exactly
// like a freshly built one, including on programs that take several
// decode-feedback rounds.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/transfer_cache.hpp"
#include "analysis/value_analysis.hpp"
#include "cfg/program.hpp"
#include "cfg/supergraph.hpp"
#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"
#include "support/thread_pool.hpp"
#include "tests/differential_shapes.hpp"
#include "tests/front_half.hpp"

namespace wcet {
namespace {

using analysis::CacheAnalysis;

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

// A constant function pointer: decode round 1 cannot resolve the jalr,
// value analysis collapses the target, and the Figure-1 feedback loop
// re-decodes — recipes are rebuilt per decode round and must stay
// coherent across rounds.
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

// Everything the cache phase feeds into the WCET bound: per-node
// fetch/data classifications (always-hit = must result, always-miss =
// may result), persistence assignments and candidate counts.
void expect_identical_classifications(const cfg::Supergraph& sg, const CacheAnalysis& a,
                                      const CacheAnalysis& b, const std::string& what) {
  for (const cfg::SgNode& node : sg.nodes()) {
    const auto& fa = a.fetch_classes(node.id);
    const auto& fb = b.fetch_classes(node.id);
    ASSERT_EQ(fa.size(), fb.size()) << what << " node " << node.id;
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].cls, fb[i].cls) << what << " node " << node.id << " inst " << i;
      EXPECT_EQ(fa[i].persistent_loop, fb[i].persistent_loop)
          << what << " node " << node.id << " inst " << i;
    }
    const auto& da = a.data_classes(node.id);
    const auto& db = b.data_classes(node.id);
    ASSERT_EQ(da.size(), db.size()) << what << " node " << node.id;
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].cls, db[i].cls) << what << " node " << node.id << " access " << i;
      EXPECT_EQ(da[i].persistent_loop, db[i].persistent_loop)
          << what << " node " << node.id << " access " << i;
      EXPECT_EQ(da[i].candidate_count, db[i].candidate_count)
          << what << " node " << node.id << " access " << i;
    }
  }
}

struct Pipeline : testshapes::FrontHalf {
  Pipeline(const std::string& source, const cfg::ResolutionHints& hints = {})
      : FrontHalf(mcc::compile_program(source).image, mem::typical_hw(), hints) {}
};

TEST(CacheRounds, ClassificationsBitIdenticalAcrossThreadCounts) {
  // Sequential baseline (no pool)...
  Pipeline p(call_tree_program(10, 3));
  CacheAnalysis baseline(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache, p.hw.dcache,
                         CacheAnalysis::Schedule::priority, p.schedule, &p.transfers,
                         nullptr);
  baseline.run();
  // ...against per-instance rounds at every pool size, replaying the
  // shared recipe slots.
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    CacheAnalysis rounds(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache, p.hw.dcache,
                         CacheAnalysis::Schedule::priority, p.schedule, &p.transfers, &pool);
    rounds.run();
    std::ostringstream what;
    what << "workers " << workers;
    expect_identical_classifications(p.sg, baseline, rounds, what.str());
  }
}

TEST(CacheRounds, WcetBitIdenticalAcrossThreadCounts) {
  for (const std::string source :
       {call_tree_program(12, 3), std::string(feedback_program)}) {
    const auto built = mcc::compile_program(source);
    const Analyzer analyzer(built.image, mem::typical_hw());
    AnalysisOptions options;
    options.threads = 1;
    const WcetReport sequential = analyzer.analyze(options);
    ASSERT_TRUE(sequential.ok) << sequential.to_string();
    for (const int threads : {2, 4, 8}) {
      options.threads = threads;
      const WcetReport parallel = analyzer.analyze(options);
      EXPECT_EQ(sequential.wcet_cycles, parallel.wcet_cycles) << "threads " << threads;
      EXPECT_EQ(sequential.bcet_cycles, parallel.bcet_cycles) << "threads " << threads;
      EXPECT_EQ(sequential.obstructions, parallel.obstructions) << "threads " << threads;
      EXPECT_EQ(sequential.cache_stats.fetch_hit, parallel.cache_stats.fetch_hit);
      EXPECT_EQ(sequential.cache_stats.fetch_miss, parallel.cache_stats.fetch_miss);
      EXPECT_EQ(sequential.cache_stats.fetch_nc, parallel.cache_stats.fetch_nc);
      EXPECT_EQ(sequential.cache_stats.data_hit, parallel.cache_stats.data_hit);
      EXPECT_EQ(sequential.cache_stats.data_miss, parallel.cache_stats.data_miss);
      EXPECT_EQ(sequential.cache_stats.data_nc, parallel.cache_stats.data_nc);
      EXPECT_EQ(sequential.cache_stats.persistent, parallel.cache_stats.persistent);
    }
  }
}

TEST(CacheRounds, RecipeMemoCoherenceAcrossDecodeFeedback) {
  // Round 1: the function-pointer call is an unresolved indirect jump.
  Pipeline round1(feedback_program);
  const auto resolved = round1.values.resolved_indirect_targets();
  ASSERT_FALSE(resolved.empty()) << "feedback program did not need a second decode round";

  // Round 2: re-decode with the value-analysis-resolved targets — the
  // same feedback edge Analyzer::analyze_entry drives.
  cfg::ResolutionHints hints;
  for (const auto& [pc, targets] : resolved) hints.indirect_targets[pc] = targets;
  Pipeline round2(feedback_program, hints);

  // `shared` builds the recipe slots into the shared transfer cache;
  // `cached` replays those memoized slots; `fresh` rebuilds everything
  // in a second, freshly attached cache. All three must classify
  // identically.
  CacheAnalysis shared(round2.sg, round2.loops, round2.values, round2.hw.memory,
                       round2.hw.icache, round2.hw.dcache,
                       CacheAnalysis::Schedule::priority, round2.schedule, &round2.transfers,
                       nullptr);
  shared.run();
  ASSERT_TRUE(round2.transfers.cache_recipes_ready());
  CacheAnalysis cached(round2.sg, round2.loops, round2.values, round2.hw.memory,
                       round2.hw.icache, round2.hw.dcache,
                       CacheAnalysis::Schedule::priority, round2.schedule, &round2.transfers,
                       nullptr);
  cached.run();
  analysis::TransferCache fresh_transfers(round2.sg);
  fresh_transfers.attach(round2.values);
  CacheAnalysis fresh(round2.sg, round2.loops, round2.values, round2.hw.memory,
                      round2.hw.icache, round2.hw.dcache, CacheAnalysis::Schedule::priority,
                      round2.schedule, &fresh_transfers, nullptr);
  fresh.run();
  expect_identical_classifications(round2.sg, shared, cached, "shared vs cached");
  expect_identical_classifications(round2.sg, fresh, cached, "fresh vs cached");

  // The recipes themselves stay aligned with the decoded blocks.
  for (const cfg::SgNode& node : round2.sg.nodes()) {
    const auto& recipe = round2.transfers.cache_recipe(node.id);
    EXPECT_EQ(recipe.fetch.size(), node.block->insts.size()) << "node " << node.id;
    EXPECT_LE(recipe.data.size(), round2.values.accesses(node.id).size())
        << "node " << node.id;
  }
}

TEST(CacheRounds, Arg32FingerprintsIdenticalAndLeavesShared) {
  // The 32-function synthetic call tree (a shape
  // ParallelOracle.ScalingShapeBoundsPinned pins): classifications
  // must be bit-identical for every worker count, and the
  // COW states must actually share — a fixpoint whose pointer-equality
  // join gate never fires would mean every leaf is cloned and the
  // structural sharing regressed to deep copies.
  Pipeline p(call_tree_program(32, 3));
  analysis::reset_cache_join_stats();
  CacheAnalysis baseline(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache, p.hw.dcache,
                         CacheAnalysis::Schedule::priority, p.schedule, &p.transfers,
                         nullptr);
  baseline.run();
  const analysis::CacheJoinStats stats = analysis::cache_join_stats();
  EXPECT_GT(stats.join_skips, 0u) << "pointer-equality join gating never fired";
  EXPECT_GT(stats.joins, 0u);
  // Sharing must dominate: most set-level join decisions should be
  // resolved by pointer identity, not by merging.
  EXPECT_GT(stats.join_skips, stats.joins);

  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    CacheAnalysis rounds(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache, p.hw.dcache,
                         CacheAnalysis::Schedule::priority, p.schedule, &p.transfers, &pool);
    rounds.run();
    expect_identical_classifications(p.sg, baseline, rounds,
                                     "workers " + std::to_string(workers));
  }
}

TEST(CacheRounds, RoundsMatchRoundRobinReferenceWithPool) {
  // The reference sweep has no notion of instances, pools or loop
  // nests; the parallel rounds engine must land on the same fixpoint,
  // also on long runs of sequential and nested loops.
  for (const std::string& source :
       {call_tree_program(6, 2), testshapes::sequential_loops(16),
        testshapes::nested_sequential_loops(3, 20, 4)}) {
    Pipeline p(source);
    ThreadPool pool(4);
    CacheAnalysis rounds(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache, p.hw.dcache,
                         CacheAnalysis::Schedule::priority, p.schedule, &p.transfers, &pool);
    rounds.run();
    CacheAnalysis reference(p.sg, p.loops, p.values, p.hw.memory, p.hw.icache,
                            p.hw.dcache, CacheAnalysis::Schedule::round_robin, p.schedule,
                            &p.transfers, nullptr);
    reference.run();
    expect_identical_classifications(p.sg, rounds, reference, "rounds vs round-robin");
  }
}

} // namespace
} // namespace wcet
