// Value analysis: constant propagation, branch refinement, the tracked
// memory model (strong/weak updates, wild-store poisoning, read-only
// data), access-fact confinement and indirect-target feedback.
#include <gtest/gtest.h>

#include "analysis/value_analysis.hpp"
#include "isa/assembler.hpp"
#include "tests/front_half.hpp"

namespace wcet::analysis {
namespace {

struct Pipeline : testshapes::FrontHalf {
  explicit Pipeline(const std::string& source,
                    const ValueAnalysis::Options& options = {})
      : FrontHalf(isa::assemble(source), mem::typical_hw(), {}, options) {}

  // Node whose block starts at the given symbol/label address (the
  // label must be a control-flow leader, e.g. a branch target).
  int node_at(std::uint32_t addr) const {
    for (const cfg::SgNode& node : sg.nodes()) {
      if (node.block->begin == addr) return node.id;
    }
    ADD_FAILURE() << "no node at 0x" << std::hex << addr;
    return -1;
  }
  // Register interval immediately before the instruction at `addr`
  // (works for any address, not only block leaders).
  Interval reg_at(std::uint32_t addr, std::uint8_t reg) const {
    for (const cfg::SgNode& node : sg.nodes()) {
      if (addr >= node.block->begin && addr < node.block->end) {
        return values.reg_before(node.id, addr, reg);
      }
    }
    ADD_FAILURE() << "no block covering 0x" << std::hex << addr;
    return Interval::bottom();
  }
  std::uint32_t sym(const std::string& name) const {
    const isa::Symbol* s = image.find_symbol(name);
    EXPECT_NE(s, nullptr) << name;
    return s != nullptr ? s->addr : 0;
  }
};

TEST(ValueAnalysis, ConstantPropagationThroughMovi) {
  Pipeline p(R"(
        .global main
        .global target
main:   movi t0, 0x12345678
        addi t1, t0, 8
target: halt
)");
  EXPECT_EQ(p.reg_at(p.sym("target"), isa::reg_t0).as_constant(), 0x12345678u);
  EXPECT_EQ(p.reg_at(p.sym("target"), isa::reg_t1).as_constant(), 0x12345680u);
  EXPECT_EQ(p.reg_at(p.sym("target"), isa::reg_zero).as_constant(), 0u);
}

TEST(ValueAnalysis, BranchRefinement) {
  Pipeline p(R"(
        .global main
        .global small
        .global big
main:   movi t1, 10
        bltu a0, t1, small
big:    halt
small:  halt
)");
  const AbsState& small_state = p.values.state_in(p.node_at(p.sym("small")));
  ASSERT_FALSE(small_state.bottom);
  EXPECT_LE(small_state.regs[isa::reg_a0].umax(), 9);
  const AbsState& big_state = p.values.state_in(p.node_at(p.sym("big")));
  ASSERT_FALSE(big_state.bottom);
  EXPECT_GE(big_state.regs[isa::reg_a0].umin(), 10);
}

TEST(ValueAnalysis, InfeasibleEdgePruned) {
  // t0 is constant 5, so `beq t0, zero` can never be taken: the dead
  // branch must be unreachable (rule 14.1's precision effect).
  Pipeline p(R"(
        .global main
        .global dead
        .global live
main:   movi t0, 5
        beq  t0, zero, dead
live:   halt
dead:   halt
)");
  EXPECT_FALSE(p.values.node_reachable(p.node_at(p.sym("dead"))));
  EXPECT_TRUE(p.values.node_reachable(p.node_at(p.sym("live"))));
}

TEST(ValueAnalysis, TrackedMemoryStrongUpdate) {
  Pipeline p(R"(
        .global main
        .global after
main:   movi t0, 0x20000
        movi t1, 77
        sw   t1, 0(t0)
        lw   t2, 0(t0)
after:  halt
)");
  EXPECT_EQ(p.reg_at(p.sym("after"), isa::reg_t2).as_constant(), 77u);
}

TEST(ValueAnalysis, RodataReadsStayPreciseDespiteWildStores) {
  // A wild store (unknown address) poisons tracked RAM but must not
  // poison read-only sections.
  Pipeline p(R"(
        .global main
        .global after
main:   movi t0, 0x20000
        movi t1, 55
        sw   t1, 0(t0)      ; tracked word
        sw   t1, 0(a0)      ; wild store (a0 unknown)
        lw   t2, 0(t0)      ; may have been overwritten -> top
        movi t0, konst
        lw   a1, 0(t0)      ; rodata: still exactly 1234
after:  halt
        .rodata
        .global konst
konst:  .word 1234
)");
  EXPECT_TRUE(p.reg_at(p.sym("after"), isa::reg_t2).is_top());
  EXPECT_EQ(p.reg_at(p.sym("after"), isa::reg_a1).as_constant(), 1234u);
}

TEST(ValueAnalysis, AccessFactsConfineWildStores) {
  // With a per-function access fact, the wild store only destroys
  // knowledge inside the declared range (paper Section 4.3 remedy).
  const std::string source = R"(
        .global main
        .global after
main:   movi t0, 0x20000
        movi t1, 55
        sw   t1, 0(t0)
        sw   t1, 0(a0)      ; wild, but confined by the fact
        lw   t2, 0(t0)
after:  halt
)";
  ValueAnalysis::Options options;
  // Confine main's imprecise accesses to 0x30000..0x30FFF.
  const isa::Image probe = isa::assemble(source);
  options.access_facts[probe.entry()] = {{0x30000, 0x1000}};
  Pipeline p(source, options);
  EXPECT_EQ(p.reg_at(p.sym("after"), isa::reg_t2).as_constant(), 55u)
      << "fact should have protected the tracked word";
}

TEST(ValueAnalysis, LoopCounterIntervalAtExit) {
  Pipeline p(R"(
        .global main
        .global after
main:   movi t0, 0
        movi t1, 8
loop:   addi t0, t0, 1
        blt  t0, t1, loop
after:  halt
)");
  const AbsState& state = p.values.state_in(p.node_at(p.sym("after")));
  ASSERT_FALSE(state.bottom);
  // At the exit, the counter is exactly the limit (refined by >=).
  EXPECT_GE(state.regs[isa::reg_t0].umin(), 8);
}

TEST(ValueAnalysis, CallPassesStateAndRaIsKnown) {
  Pipeline p(R"(
        .global main
        .global leaf
        .global after
main:   movi a0, 123
        call leaf
after:  halt
leaf:   addi a1, a0, 1
        ret
)");
  // Inside leaf, a0 carries the argument constant.
  const int leaf_node = p.node_at(p.sym("leaf"));
  const AbsState& leaf_state = p.values.state_in(leaf_node);
  EXPECT_EQ(leaf_state.regs[isa::reg_a0].as_constant(), 123u);
  // After the call returns, a1 was computed in the callee.
  const AbsState& after = p.values.state_in(p.node_at(p.sym("after")));
  EXPECT_EQ(after.regs[isa::reg_a1].as_constant(), 124u);
}

TEST(ValueAnalysis, EcallClobbersCallerSaved) {
  Pipeline p(R"(
        .global main
        .global after
main:   movi a2, 9
        movi s0, 17
        movi a0, 1
        movi a1, 65
        ecall
after:  halt
)");
  EXPECT_TRUE(p.reg_at(p.sym("after"), isa::reg_a2).is_top());
  EXPECT_EQ(p.reg_at(p.sym("after"), isa::reg_s0).as_constant(), 17u);
}

TEST(ValueAnalysis, IndirectTargetFeedback) {
  // A function pointer loaded from a constant global collapses to a
  // single constant: the analysis reports it for the decode loop.
  Pipeline p(R"(
        .global main
        .global handler
main:   movi t0, fnptr
        lw   t1, 0(t0)
        callr t1
        halt
handler: ret
        .rodata
        .global fnptr
fnptr:  .word handler
)");
  const auto resolved = p.values.resolved_indirect_targets();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved.begin()->second.at(0), p.sym("handler"));
}

TEST(ValueAnalysis, SubWordLoadsBounded) {
  Pipeline p(R"(
        .global main
        .global after
main:   lbu  t0, 0(a0)     ; unknown byte: [0, 255]
        lb   t1, 0(a0)     ; signed byte
        lhu  t2, 0(a1)     ; careful: a1 may be misaligned; still bounded
after:  halt
)");
  EXPECT_LE(p.reg_at(p.sym("after"), isa::reg_t0).umax(), 255);
  // Signed sub-word ranges cross zero, which a contiguous unsigned
  // interval cannot represent: top is the sound answer.
  EXPECT_TRUE(p.reg_at(p.sym("after"), isa::reg_t1).is_top());
  EXPECT_LE(p.reg_at(p.sym("after"), isa::reg_t2).umax(), 65535);
}

TEST(ValueAnalysis, AccessRecordsMatchInstructions) {
  Pipeline p(R"(
        .global main
main:   movi t0, 0x20000
        lw   t1, 4(t0)
        sw   t1, 8(t0)
        halt
)");
  int loads = 0;
  int stores = 0;
  for (const cfg::SgNode& node : p.sg.nodes()) {
    for (const AccessInfo& access : p.values.accesses(node.id)) {
      if (access.is_store) {
        ++stores;
        EXPECT_EQ(access.addr.as_constant(), 0x20008u);
      } else {
        ++loads;
        EXPECT_EQ(access.addr.as_constant(), 0x20004u);
      }
    }
  }
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(stores, 1);
}

// The written-region list of AbsState: at most max_written_regions
// disjoint intervals, merged within a 64-byte slack, collapsed to one
// hull on overflow. These pin the list's exact contents, so a change of
// its representation cannot change what the value analysis computes.
Interval word_at(std::uint32_t addr) {
  return Interval::from_unsigned(addr, static_cast<std::int64_t>(addr) + 3);
}

TEST(WrittenRegions, SixDisjointRegionsStaySix) {
  ASSERT_EQ(AbsState::max_written_regions, 6u);
  AbsState s = AbsState::entry_state();
  for (std::uint32_t i = 1; i <= 6; ++i) s.add_written(word_at(0x1000 * i));
  ASSERT_EQ(s.written.size(), 6u);
  for (std::uint32_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(s.written[i - 1], word_at(0x1000 * i)) << "region " << i;
  }
  EXPECT_TRUE(s.possibly_written(Interval::constant(0x3002)));
  EXPECT_FALSE(s.possibly_written(Interval::from_unsigned(0x3100, 0x3fff)));
  EXPECT_FALSE(s.possibly_written(Interval::constant(0x7000)));
}

TEST(WrittenRegions, SeventhRegionCollapsesToOneHull) {
  AbsState s = AbsState::entry_state();
  for (std::uint32_t i = 1; i <= 7; ++i) s.add_written(word_at(0x1000 * i));
  ASSERT_EQ(s.written.size(), 1u);
  EXPECT_EQ(s.written[0], Interval::from_unsigned(0x1000, 0x7003));
  // The hull covers the gaps between the old regions too.
  EXPECT_TRUE(s.possibly_written(Interval::constant(0x1800)));
  // After the collapse the list grows again from one region.
  s.add_written(word_at(0x20000));
  ASSERT_EQ(s.written.size(), 2u);
  EXPECT_EQ(s.written[1], word_at(0x20000));
}

TEST(WrittenRegions, RegionsWithinSlackMerge) {
  AbsState s = AbsState::entry_state();
  s.add_written(word_at(0x100));
  s.add_written(word_at(0x140)); // 60 bytes past the first region's end
  ASSERT_EQ(s.written.size(), 1u);
  EXPECT_EQ(s.written[0], Interval::from_unsigned(0x100, 0x143));
  // Exactly 64 bytes past the end still merges; 65 bytes does not.
  AbsState near = s;
  near.add_written(word_at(0x183));
  ASSERT_EQ(near.written.size(), 1u);
  EXPECT_EQ(near.written[0], Interval::from_unsigned(0x100, 0x186));
  AbsState far = s;
  far.add_written(word_at(0x184));
  ASSERT_EQ(far.written.size(), 2u);
  EXPECT_EQ(far.written[0], Interval::from_unsigned(0x100, 0x143));
  EXPECT_EQ(far.written[1], word_at(0x184));
  // A range inside a region leaves the list unchanged; bottom is ignored.
  AbsState inside = s;
  inside.add_written(word_at(0x120));
  inside.add_written(Interval::bottom());
  ASSERT_EQ(inside.written.size(), 1u);
  EXPECT_EQ(inside.written[0], Interval::from_unsigned(0x100, 0x143));
}

TEST(WrittenRegions, JoinReportsChangeExactlyWhenListChanges) {
  AbsState base = AbsState::entry_state();
  base.add_written(word_at(0x1000));
  base.add_written(word_at(0x2000));

  // Same list, or a subset of it: no change.
  AbsState same = base;
  EXPECT_FALSE(same.join_with(base));
  AbsState sub = AbsState::entry_state();
  sub.add_written(word_at(0x2000));
  AbsState joined = base;
  EXPECT_FALSE(joined.join_with(sub));
  EXPECT_EQ(joined, base);

  // A region inside an existing one: no change.
  AbsState inner = AbsState::entry_state();
  inner.add_written(Interval::from_unsigned(0x1001, 0x1002));
  joined = base;
  EXPECT_FALSE(joined.join_with(inner));

  // A new disjoint region: changed, and appended.
  AbsState extra = AbsState::entry_state();
  extra.add_written(word_at(0x5000));
  joined = base;
  EXPECT_TRUE(joined.join_with(extra));
  ASSERT_EQ(joined.written.size(), 3u);
  EXPECT_EQ(joined.written[2], word_at(0x5000));

  // A region within the slack of an existing one grows it: changed.
  AbsState grow = AbsState::entry_state();
  grow.add_written(word_at(0x1010));
  joined = base;
  EXPECT_TRUE(joined.join_with(grow));
  ASSERT_EQ(joined.written.size(), 2u);
  EXPECT_EQ(joined.written[0], Interval::from_unsigned(0x1000, 0x1013));

  // Joining into bottom copies the other state's list.
  AbsState bottom;
  EXPECT_TRUE(bottom.join_with(base));
  EXPECT_EQ(bottom, base);
  EXPECT_FALSE(bottom.join_with(AbsState{}));
}

TEST(WrittenRegions, EqualityComparesLists) {
  AbsState a = AbsState::entry_state();
  AbsState b = AbsState::entry_state();
  EXPECT_EQ(a, b);
  a.add_written(word_at(0x1000));
  EXPECT_FALSE(a == b);
  b.add_written(word_at(0x2000));
  EXPECT_FALSE(a == b);
  b = AbsState::entry_state();
  b.add_written(word_at(0x1000));
  EXPECT_EQ(a, b);
  // Same regions in another order are a different list.
  a.add_written(word_at(0x2000));
  AbsState c = AbsState::entry_state();
  c.add_written(word_at(0x2000));
  c.add_written(word_at(0x1000));
  EXPECT_FALSE(a == c);
  // Copies compare equal.
  const AbsState copy = a;
  EXPECT_EQ(copy, a);
}

} // namespace
} // namespace wcet::analysis
