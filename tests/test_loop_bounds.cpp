// Loop-bound analysis: the affine trip-count engine (parameterized unit
// sweep) and end-to-end bound detection on assembly loops, including
// memory-homed ("slot") counters and the failure modes the MISRA rules
// are about.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/loop_bounds.hpp"
#include "isa/assembler.hpp"
#include "tests/differential_shapes.hpp"
#include "tests/front_half.hpp"

namespace wcet::analysis {
namespace {

// -------------------------- affine_trip_count ---------------------------

struct TripCase {
  const char* name;
  std::int64_t init_lo, init_hi;
  std::int32_t stride;
  Pred stay;
  std::int64_t limit_lo, limit_hi;
  std::optional<std::uint64_t> expected;
};

class TripCount : public ::testing::TestWithParam<TripCase> {};

TEST_P(TripCount, MatchesClosedForm) {
  const TripCase& c = GetParam();
  const Interval init = c.init_lo >= 0 ? Interval::from_unsigned(c.init_lo, c.init_hi)
                                       : Interval::from_signed(c.init_lo, c.init_hi);
  const Interval limit = c.limit_lo >= 0
                             ? Interval::from_unsigned(c.limit_lo, c.limit_hi)
                             : Interval::from_signed(c.limit_lo, c.limit_hi);
  EXPECT_EQ(LoopBoundAnalysis::affine_trip_count(init, c.stride, c.stay, limit),
            c.expected)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TripCount,
    ::testing::Values(
        TripCase{"count_up", 0, 0, 1, Pred::lt_s, 10, 10, 10},
        TripCase{"count_up_step3", 0, 0, 3, Pred::lt_s, 10, 10, 4},
        TripCase{"count_up_interval_init", 0, 5, 1, Pred::lt_s, 10, 10, 10},
        TripCase{"count_up_interval_limit", 0, 0, 1, Pred::lt_s, 5, 12, 12},
        TripCase{"zero_trips", 20, 20, 1, Pred::lt_s, 10, 10, 0},
        TripCase{"count_down", 10, 10, -1, Pred::ge_s, 1, 1, 10},
        TripCase{"count_down_step2", 9, 9, -2, Pred::ge_s, 0, 0, 5},
        TripCase{"unsigned_up", 0, 0, 1, Pred::lt_u, 100, 100, 100},
        TripCase{"unsigned_down", 64, 64, -4, Pred::ge_u, 4, 4, 16},
        TripCase{"unsigned_down_wrap_refused", 64, 64, -4, Pred::ge_u, 1, 1,
                 std::nullopt}, // a misaligned counter could wrap below 0
        TripCase{"ne_unit", 0, 0, 1, Pred::ne, 7, 7, 7},
        TripCase{"ne_down", 7, 7, -1, Pred::ne, 0, 0, 7},
        TripCase{"eq_once", 3, 3, 1, Pred::eq, 3, 3, 1},
        TripCase{"wrong_direction", 0, 0, -1, Pred::lt_s, 10, 10, std::nullopt},
        TripCase{"ne_step2_unbounded", 0, 0, 2, Pred::ne, 7, 7, std::nullopt},
        TripCase{"zero_stride", 0, 0, 0, Pred::lt_s, 10, 10, std::nullopt},
        TripCase{"overflow_guard", 0, 0, 1, Pred::lt_s, INT32_MAX, INT32_MAX,
                 std::nullopt},
        TripCase{"negative_init_up", -5, -5, 1, Pred::lt_s, 5, 5, 10}),
    [](const ::testing::TestParamInfo<TripCase>& info) { return info.param.name; });

// ------------------------------ end to end ------------------------------

struct BoundsPipeline : testshapes::FrontHalf {
  std::vector<LoopBoundResult> results;

  explicit BoundsPipeline(const std::string& source)
      : FrontHalf(isa::assemble(source)),
        results(LoopBoundAnalysis(sg, loops, doms, values, &transfers).run()) {}
};

TEST(LoopBounds, SimpleCounterLoop) {
  BoundsPipeline p(R"(
main:   movi t0, 0
        movi t1, 16
loop:   addi t0, t0, 1
        blt  t0, t1, loop
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  // Exact back-edge count: the body runs 16 times, taking the back edge
  // 15 times (the update dominates the latch compare).
  EXPECT_EQ(p.results[0].bound, std::uint64_t{15}) << p.results[0].detail;
}

TEST(LoopBounds, CountDownLoop) {
  BoundsPipeline p(R"(
main:   movi t0, 32
loop:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_EQ(p.results[0].bound, std::uint64_t{31}) << p.results[0].detail;
}

TEST(LoopBounds, CountDownStepTwoNeRefused) {
  // `i != 0` with stride -2 could step over the limit; bounding it
  // against `ne` would be unsound in general, so the analysis refuses.
  BoundsPipeline p(R"(
main:   movi t0, 32
loop:   addi t0, t0, -2
        bne  t0, zero, loop
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_FALSE(p.results[0].bound.has_value());
}

TEST(LoopBounds, CountDownStepTwoGeBounded) {
  // The same loop with a >= exit is fine.
  BoundsPipeline p(R"(
main:   movi t0, 32
loop:   addi t0, t0, -2
        movi t1, 1
        bge  t0, t1, loop       ; stay while t0 >= 1
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_EQ(p.results[0].bound, std::uint64_t{15}) << p.results[0].detail;
}

TEST(LoopBounds, LimitOnLeftOfBranch) {
  // Branch written as (limit > counter): the mirrored predicate path.
  BoundsPipeline p(R"(
main:   movi t0, 0
        movi t1, 9
loop:   addi t0, t0, 1
        blt  t0, t1, loop       ; stay while t0 < 9
        halt
)");
  EXPECT_EQ(p.results.at(0).bound, std::uint64_t{8});
}

TEST(LoopBounds, MirroredOperands) {
  BoundsPipeline p(R"(
main:   movi t0, 0
        movi t1, 9
loop:   addi t0, t0, 1
        bge  t1, t0, loop       ; stay while 9 >= t0  ==  t0 <= 9
        halt
)");
  // The update dominates the latch compare, so the bound is exact: the
  // compare sequence starts at init + stride.
  EXPECT_EQ(p.results.at(0).bound, std::uint64_t{9});
}

TEST(LoopBounds, SlotCounterInMemory) {
  // Spilled counter: load/addi/store triple against a stack slot.
  BoundsPipeline p(R"(
main:   movi sp, 0x20100
        movi t0, 0
        sw   t0, 0(sp)
loop:   lw   t0, 0(sp)
        addi t0, t0, 1
        sw   t0, 0(sp)
        movi t1, 12
        lw   t2, 0(sp)
        blt  t2, t1, loop
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_EQ(p.results[0].bound, std::uint64_t{11}) << p.results[0].detail;
  EXPECT_NE(p.results[0].detail.find("mem["), std::string::npos);
}

TEST(LoopBounds, InputDataDependentLoopUnbounded) {
  // The loop condition depends on a0 (task input): no bound, the
  // paper's "input-data dependent loops" case.
  BoundsPipeline p(R"(
main:   movi t0, 0
loop:   addi t0, t0, 1
        blt  t0, a0, loop
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  // a0 is top: bounding against smax would allow INT32_MAX trips; the
  // wrap guard refuses (no false bound).
  EXPECT_FALSE(p.results[0].bound.has_value()) << p.results[0].detail;
}

TEST(LoopBounds, CounterModifiedTwiceRejected) {
  // Rule 13.6's effect: a second in-body update breaks the pattern.
  BoundsPipeline p(R"(
main:   movi t0, 0
        movi t1, 16
loop:   addi t0, t0, 1
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_FALSE(p.results[0].bound.has_value());
}

TEST(LoopBounds, IrreducibleLoopRejected) {
  BoundsPipeline p(R"(
main:   beq a0, zero, mid
head:   addi t0, t0, 1
mid:    addi t1, t1, 1
        movi t2, 10
        blt  t1, t2, head
        halt
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_TRUE(p.results[0].irreducible);
  EXPECT_FALSE(p.results[0].bound.has_value());
  EXPECT_NE(p.results[0].detail.find("irreducible"), std::string::npos);
}

TEST(LoopBounds, NestedLoopsBothBounded) {
  BoundsPipeline p(R"(
main:   movi t0, 0
outer:  movi t1, 0
inner:  addi t1, t1, 1
        movi t2, 4
        blt  t1, t2, inner
        addi t0, t0, 1
        movi t2, 8
        blt  t0, t2, outer
        halt
)");
  ASSERT_EQ(p.results.size(), 2u);
  std::vector<std::uint64_t> bounds;
  for (const auto& r : p.results) {
    ASSERT_TRUE(r.bound.has_value()) << r.detail;
    bounds.push_back(*r.bound);
  }
  std::sort(bounds.begin(), bounds.end());
  EXPECT_EQ(bounds[0], 3u);
  EXPECT_EQ(bounds[1], 7u);
}

TEST(LoopBounds, LoopBoundFromMemoryConstant) {
  // The limit is loaded from an initialized global: value analysis knows
  // its contents, so the bound is found automatically.
  BoundsPipeline p(R"(
main:   movi t1, limit
        lw   t1, 0(t1)
        movi t0, 0
loop:   addi t0, t0, 1
        blt  t0, t1, loop
        halt
        .data
        .global limit
limit:  .word 24
)");
  ASSERT_EQ(p.results.size(), 1u);
  EXPECT_EQ(p.results[0].bound, std::uint64_t{23}) << p.results[0].detail;
}

TEST(LoopBounds, BoundUsesWorstContext) {
  // Same loop body called with two different limits: the supergraph
  // clones give each context its own (exact) bound.
  BoundsPipeline p(R"(
        .global main
        .global spin
main:   movi a0, 3
        call spin
        movi a0, 11
        call spin
        halt
spin:   movi t0, 0
sloop:  addi t0, t0, 1
        blt  t0, a0, sloop
        ret
)");
  ASSERT_EQ(p.results.size(), 2u); // one loop per instance
  std::vector<std::uint64_t> bounds;
  for (const auto& r : p.results) {
    ASSERT_TRUE(r.bound.has_value()) << r.detail;
    bounds.push_back(*r.bound);
  }
  std::sort(bounds.begin(), bounds.end());
  EXPECT_EQ(bounds[0], 2u);
  EXPECT_EQ(bounds[1], 10u);
}

// ------------------------ loop-nest fixpoint order ----------------------

// `count` register-counted loops, each testing its counter at the top
// and jumping back from the bottom, as mcc compiles a `for`.
std::string sequential_register_loops(int count) {
  std::ostringstream os;
  os << "main:   movi a1, 0\n        movi t1, 5\n";
  for (int k = 0; k < count; ++k) {
    os << "        movi t0, 0\nh" << k << ":     bge  t0, t1, e" << k
       << "\n        addi a1, a1, 1\n        addi t0, t0, 1\n        j    h" << k << "\ne"
       << k << ":\n";
  }
  os << "        halt\n";
  return os.str();
}

TEST(LoopBounds, SequentialLoopsAllBoundedInLinearWork) {
  // A run of counted loops is the friendliest structure MISRA allows:
  // every loop must be bounded however many there are, with value work
  // linear in their number. A schedule that visits the code after a
  // loop before the loop's body re-runs every later loop on each pass
  // of an earlier one: work grows quadratically, and a per-node visit
  // cap of 64 leaves every stack-slot loop after the ninth unbounded.
  // The visit budget below fails (as a recorded degradation) when the
  // work is not linear.
  struct Case {
    std::string name;
    isa::Image image;
    int loops;
    std::uint64_t wcet;
  };
  std::vector<Case> cases;
  const std::pair<int, std::uint64_t> sequential[] = {
      {10, 1703}, {16, 2659}, {48, 7763}, {64, 10315}};
  for (const auto& [count, wcet] : sequential) {
    cases.push_back({"sequential_" + std::to_string(count),
                     mcc::compile_program(testshapes::sequential_loops(count)).image, count,
                     wcet});
  }
  cases.push_back({"nested_3x20x4",
                   mcc::compile_program(testshapes::nested_sequential_loops(3, 20, 4)).image,
                   21, 7957});
  cases.push_back({"registers_64", isa::assemble(sequential_register_loops(64)), 64, 3719});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Analyzer analyzer(c.image, mem::typical_hw());
    AnalysisOptions options;
    options.budget.max_value_visits = 32 * static_cast<std::uint64_t>(c.loops) + 64;
    const WcetReport report = analyzer.analyze(options);
    EXPECT_TRUE(report.ok) << report.to_string();
    EXPECT_FALSE(report.degraded) << report.to_string();
    EXPECT_EQ(report.loop_count, c.loops);
    EXPECT_EQ(report.bounded_loops, c.loops);
    EXPECT_EQ(report.wcet_cycles, c.wcet);
    sim::Simulator sim(c.image, analyzer.hw());
    const sim::SimResult run = sim.run();
    EXPECT_TRUE(run.completed()) << run.trap_reason;
    EXPECT_LE(run.cycles, report.wcet_cycles);
  }
}

} // namespace
} // namespace wcet::analysis
