// Abstract caches: the must/may LRU domains against the concrete LRU
// cache (randomized trace property: must-hit => concrete hit, concrete
// hit => may-hit), classification on programs, persistence, and
// pipeline-analysis block bounds.
#include <gtest/gtest.h>

#include "analysis/cache_analysis.hpp"
#include "analysis/pipeline_analysis.hpp"
#include "isa/assembler.hpp"
#include "mem/cache.hpp"
#include "support/rng.hpp"
#include "tests/front_half.hpp"

namespace wcet::analysis {
namespace {

TEST(ConcreteCache, LruEviction) {
  mem::CacheConfig config{.enabled = true, .sets = 1, .ways = 2, .line_bytes = 16};
  mem::Cache cache(config);
  EXPECT_FALSE(cache.access(0x000)); // miss, insert A
  EXPECT_FALSE(cache.access(0x010)); // miss, insert B
  EXPECT_TRUE(cache.access(0x000));  // hit A (B becomes LRU)
  EXPECT_FALSE(cache.access(0x020)); // miss C, evicts B
  EXPECT_TRUE(cache.access(0x000));
  EXPECT_FALSE(cache.access(0x010)); // B was evicted
}

TEST(AbsCache, MustMayBasics) {
  mem::CacheConfig config{.enabled = true, .sets = 4, .ways = 2, .line_bytes = 16};
  AbsCache must = AbsCache::cold(config, true);
  AbsCache may = AbsCache::cold(config, false);
  const std::uint32_t line_a = 0;
  const std::uint32_t line_b = 4; // same set (4 sets)
  const std::uint32_t line_c = 8; // same set

  must.access(line_a);
  may.access(line_a);
  EXPECT_TRUE(must.contains(line_a));
  EXPECT_TRUE(may.contains(line_a));

  must.access(line_b);
  may.access(line_b);
  EXPECT_TRUE(must.contains(line_a)); // 2 ways: both fit

  must.access(line_c);
  may.access(line_c);
  EXPECT_FALSE(must.contains(line_a)); // evicted from must
  EXPECT_TRUE(must.contains(line_c));
}

TEST(AbsCache, JoinSemantics) {
  mem::CacheConfig config{.enabled = true, .sets = 2, .ways = 2, .line_bytes = 16};
  AbsCache must_a = AbsCache::cold(config, true);
  AbsCache must_b = AbsCache::cold(config, true);
  must_a.access(0);
  must_a.access(2); // set 0: lines 0 and 2
  must_b.access(0); // only line 0
  must_a.join_with(must_b);
  EXPECT_TRUE(must_a.contains(0));  // in both
  EXPECT_FALSE(must_a.contains(2)); // only on one path

  AbsCache may_a = AbsCache::cold(config, false);
  AbsCache may_b = AbsCache::cold(config, false);
  may_a.access(0);
  may_b.access(2);
  may_a.join_with(may_b);
  EXPECT_TRUE(may_a.contains(0)); // union
  EXPECT_TRUE(may_a.contains(2));
}

TEST(AbsCache, UnknownAccessDamagesMustOnly) {
  mem::CacheConfig config{.enabled = true, .sets = 2, .ways = 2, .line_bytes = 16};
  AbsCache must = AbsCache::cold(config, true);
  AbsCache may = AbsCache::cold(config, false);
  must.access(0);
  must.access(1);
  may.access(0);
  may.access(1);
  // One unknown access ages everything in must by one.
  must.access_unknown();
  may.access_unknown();
  EXPECT_TRUE(must.contains(0)); // aged but still within 2 ways
  must.access_unknown();
  EXPECT_FALSE(must.contains(0)) << "two unknown accesses clear a 2-way must cache";
  EXPECT_TRUE(may.contains(0)) << "may keeps lines: the access may have gone elsewhere";
}

// Property: for random access traces, must-cache hits are concrete hits
// and concrete hits are may-cache hits (with identical update order).
class CacheChain : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheChain, MustSubsetConcreteSubsetMay) {
  const unsigned ways = GetParam();
  mem::CacheConfig config{.enabled = true, .sets = 4, .ways = ways, .line_bytes = 16};
  mem::Cache concrete(config);
  AbsCache must = AbsCache::cold(config, true);
  AbsCache may = AbsCache::cold(config, false);
  Rng rng(1234 + ways);
  for (int step = 0; step < 5000; ++step) {
    const std::uint32_t addr = rng.below(64) * 16; // 64 lines over 4 sets
    const std::uint32_t line = config.line_of(addr);
    const bool must_hit = must.contains(line);
    const bool may_hit = may.contains(line);
    const bool hit = concrete.would_hit(addr);
    ASSERT_LE(must_hit, hit) << "must-hit that concretely missed, step " << step;
    ASSERT_LE(hit, may_hit) << "concrete hit outside may cache, step " << step;
    concrete.access(addr);
    must.access(line);
    may.access(line);
  }
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheChain, ::testing::Values(1u, 2u, 4u));

// ------------------------------ integration -----------------------------

struct CachePipelineHarness : testshapes::FrontHalf {
  std::unique_ptr<CacheAnalysis> caches;
  std::unique_ptr<PipelineAnalysis> pipeline;

  explicit CachePipelineHarness(const std::string& source,
                                mem::HwConfig hw_config = mem::typical_hw())
      : FrontHalf(isa::assemble(source), std::move(hw_config)) {
    caches = std::make_unique<CacheAnalysis>(sg, loops, values, hw.memory, hw.icache,
                                             hw.dcache, CacheAnalysis::Schedule::priority,
                                             schedule, &transfers, nullptr);
    caches->run();
    pipeline = std::make_unique<PipelineAnalysis>(sg, values, *caches, hw);
    pipeline->run();
  }
};

TEST(CacheAnalysis, LoopFetchesBecomePersistentOrHit) {
  CachePipelineHarness h(R"(
main:   movi t0, 0
        movi t1, 50
loop:   addi t2, zero, 1
        addi t2, zero, 2
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
)");
  const auto stats = h.caches->stats();
  // Loop fetches must be AH or persistence-covered — a bare NC fetch
  // would charge 50 misses for a 2-line loop. (The cold entry block
  // legitimately contributes a couple of always-miss fetches, and the
  // header line joins entry/backedge states into NC + persistent.)
  EXPECT_GT(stats.fetch_hit, 0u);
  EXPECT_GE(stats.persistent, stats.fetch_nc);
  EXPECT_LE(stats.fetch_miss, 3u);
}

TEST(CacheAnalysis, UnknownStoreDoesNotDamage) {
  // Stores are write-through/no-allocate in this model: a wild store
  // must not reclassify cached loads.
  CachePipelineHarness h(R"(
main:   movi t0, 0x20000
        lw   t1, 0(t0)      ; miss, fills line
        sw   t1, 0(a0)      ; wild store
        lw   t2, 0(t0)      ; must still be a hit
        halt
)");
  const auto stats = h.caches->stats();
  EXPECT_EQ(stats.data_hit, 1u);
}

TEST(CacheAnalysis, UnknownLoadDamagesMust) {
  CachePipelineHarness h(R"(
main:   movi t0, 0x20000
        lw   t1, 0(t0)      ; fills line
        lw   t2, 0(a0)      ; unknown load: ages the whole must cache
        lw   t2, 0(a1)      ; and again: 2-way must cache now empty
        lw   t2, 0(t0)      ; cannot be classified AH anymore
        halt
)");
  const auto stats = h.caches->stats();
  EXPECT_EQ(stats.data_hit, 0u);
  // First load: always-miss (cold). The two wild loads span cacheable
  // and uncacheable space, so they are not-classified (a concrete run
  // may hit the cache — charging them as uncached would over-claim the
  // best case) and still age the must cache; the final load is
  // therefore unclassified too.
  EXPECT_EQ(stats.data_miss, 1u);
  EXPECT_EQ(stats.data_uncached, 0u);
  EXPECT_EQ(stats.data_nc, 3u);
}

TEST(CacheAnalysis, UncachedRegionsClassified) {
  CachePipelineHarness h(R"(
main:   movi t0, 0xF0000000
        lw   t1, 0(t0)      ; CAN mmio: uncached
        halt
)");
  const auto stats = h.caches->stats();
  EXPECT_EQ(stats.data_uncached, 1u);
}

TEST(Pipeline, BoundsOrderAndMagnitude) {
  CachePipelineHarness h(R"(
main:   movi t0, 1
        mul  t1, t0, t0
        divu t2, t1, t0
        halt
)");
  for (const cfg::SgNode& node : h.sg.nodes()) {
    const NodeTiming& t = h.pipeline->timing(node.id);
    EXPECT_LE(t.lb, t.ub);
  }
}

TEST(Pipeline, SlowRegionLoadDominates) {
  // A load with an unknown address must be charged the slowest
  // reachable memory (paper Section 4.3, imprecise accesses).
  CachePipelineHarness h(R"(
main:   lw   t1, 0(a0)
        halt
)");
  // Find main's node timing.
  const NodeTiming& t = h.pipeline->timing(h.sg.entry_node());
  // Worst region in the default map is the external bus (latency 40).
  EXPECT_GE(t.ub, 40u);
  EXPECT_LE(t.lb, 10u); // best case: cache hit
}

TEST(Pipeline, TakenBranchChargedOnEdge) {
  CachePipelineHarness h(R"(
main:   beq  a0, zero, out
        addi t0, t0, 1
out:    halt
)");
  bool found_taken_extra = false;
  for (const cfg::SgEdge& edge : h.sg.edges()) {
    if (edge.kind == cfg::EdgeKind::taken) {
      EXPECT_EQ(h.pipeline->edge_extra(edge.id), h.hw.pipeline.branch_taken_penalty);
      found_taken_extra = true;
    } else {
      EXPECT_EQ(h.pipeline->edge_extra(edge.id), 0u);
    }
  }
  EXPECT_TRUE(found_taken_extra);
}

TEST(Pipeline, PersistentLoadProducesPsTerm) {
  CachePipelineHarness h(R"(
main:   movi t0, 0
        movi t1, 20
        movi t2, 0x20000
loop:   lw   a1, 0(t2)       ; same line every iteration: persistent
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
)");
  bool found_ps = false;
  for (const cfg::SgNode& node : h.sg.nodes()) {
    for (const PsTerm& ps : h.pipeline->timing(node.id).ps_terms) {
      found_ps = true;
      EXPECT_GE(ps.penalty, 1u);
      EXPECT_GE(ps.line_count, 1u);
    }
  }
  EXPECT_TRUE(found_ps) << "loop-invariant load should be persistence-classified";
}

} // namespace
} // namespace wcet::analysis
