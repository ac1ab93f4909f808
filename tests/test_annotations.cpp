// Annotation language: every statement form of Section 4.3, symbol
// resolution, per-mode lookups and error reporting.
#include <gtest/gtest.h>

#include "annot/annotations.hpp"
#include "isa/assembler.hpp"
#include "support/diag.hpp"

namespace wcet::annot {
namespace {

isa::Image test_image() {
  return isa::assemble(R"(
        .global main
        .global handler_a
        .global handler_b
main:   halt
handler_a: ret
handler_b: ret
)");
}

TEST(Annotations, LoopBounds) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
loop at 0x1234 max 16
loop at "main" max 8
loop at "main"+0x4 max 4 in mode GROUND
)", image);
  ASSERT_EQ(db.loop_bounds.size(), 3u);
  EXPECT_EQ(db.loop_bounds[0].addr, 0x1234u);
  EXPECT_EQ(db.loop_bounds[0].max_iterations, 16u);
  EXPECT_EQ(db.loop_bounds[0].mode, "");
  EXPECT_EQ(db.loop_bounds[1].addr, 0x1000u);
  EXPECT_EQ(db.loop_bounds[1].max_iterations, 8u);
  EXPECT_EQ(db.loop_bounds[1].mode, "");
  EXPECT_EQ(db.loop_bounds[2].addr, 0x1004u);
  EXPECT_EQ(db.loop_bounds[2].max_iterations, 4u);
  EXPECT_EQ(db.loop_bounds[2].mode, "GROUND");
}

TEST(Annotations, ModeSpecificBoundTightensGlobal) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
loop at 0x2000 max 100
loop at 0x2000 max 10 in mode AIR
)", image);
  ASSERT_EQ(db.loop_bounds.size(), 2u);
  EXPECT_EQ(db.loop_bounds[0].addr, 0x2000u);
  EXPECT_EQ(db.loop_bounds[0].max_iterations, 100u);
  EXPECT_EQ(db.loop_bounds[0].mode, "");
  EXPECT_EQ(db.loop_bounds[1].addr, 0x2000u);
  EXPECT_EQ(db.loop_bounds[1].max_iterations, 10u);
  EXPECT_EQ(db.loop_bounds[1].mode, "AIR");
}

TEST(Annotations, RecursionAndTargets) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
recursion "handler_a" max 5
targets at "main" are "handler_a", "handler_b"
)", image);
  const std::uint32_t a = image.find_symbol("handler_a")->addr;
  const std::uint32_t b = image.find_symbol("handler_b")->addr;
  EXPECT_EQ(db.recursion_depths.at(a), 5u);
  const auto& targets = db.indirect_targets.at(image.find_symbol("main")->addr);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], a);
  EXPECT_EQ(targets[1], b);
}

TEST(Annotations, FlowFactsAndPairs) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
flow at 0x1000 <= 5
flow at 0x1000 <= 8 in mode GROUND
flow at 0x2000 <= 3 * at 0x3000
infeasible at 0x4000 with 0x5000
)", image);
  ASSERT_EQ(db.flow_caps.size(), 2u);
  EXPECT_EQ(db.flow_caps[0].max_count, 5u);
  EXPECT_EQ(db.flow_caps[1].mode, "GROUND");
  ASSERT_EQ(db.flow_ratios.size(), 1u);
  EXPECT_EQ(db.flow_ratios[0].factor, 3u);
  EXPECT_EQ(db.flow_ratios[0].relative_to, 0x3000u);
  ASSERT_EQ(db.infeasible_pairs.size(), 1u);
  EXPECT_EQ(db.infeasible_pairs[0].a, 0x4000u);
  EXPECT_EQ(db.infeasible_pairs[0].b, 0x5000u);
}

TEST(Annotations, ModesAndNever) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
mode GROUND excludes "handler_a", 0x7000
mode AIR excludes "handler_b"
never at 0x8000
)", image);
  const auto ground = db.excluded_addrs("GROUND");
  EXPECT_EQ(ground.count(image.find_symbol("handler_a")->addr), 1u);
  EXPECT_EQ(ground.count(0x7000), 1u);
  EXPECT_EQ(ground.count(0x8000), 1u); // nevers apply everywhere
  const auto air = db.excluded_addrs("AIR");
  EXPECT_EQ(air.count(image.find_symbol("handler_b")->addr), 1u);
  EXPECT_EQ(air.count(0x7000), 0u);
  EXPECT_EQ(db.excluded_addrs("").size(), 1u);
  EXPECT_EQ(db.mode_names().size(), 2u);
}

TEST(Annotations, RegionsAndAccessFacts) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
region "CAN" at 0xF0000000 size 0x1000 read 30 write 35 io
region "scratch" at 0x50000 size 0x100 read 2 write 2
accesses "main" region "CAN"
accesses "handler_a" at 0x50000 size 0x80
)", image);
  ASSERT_EQ(db.regions.size(), 2u);
  EXPECT_TRUE(db.regions[0].io);
  EXPECT_FALSE(db.regions[0].cacheable);
  EXPECT_EQ(db.regions[0].write_latency, 35u);
  EXPECT_TRUE(db.regions[1].cacheable);
  const auto& main_facts = db.access_facts.at(image.find_symbol("main")->addr);
  ASSERT_EQ(main_facts.size(), 1u);
  EXPECT_EQ(main_facts[0].base, 0xF0000000u);
  const auto& ha_facts = db.access_facts.at(image.find_symbol("handler_a")->addr);
  EXPECT_EQ(ha_facts[0].size, 0x80u);
}

TEST(Annotations, CommentsAndSeparators) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations(R"(
# a comment line
loop at 0x100 max 2 ; loop at 0x200 max 3
loop at 0x300 max 4   # trailing comment
)", image);
  EXPECT_EQ(db.loop_bounds.size(), 3u);
}

TEST(Annotations, Errors) {
  const isa::Image image = test_image();
  EXPECT_THROW(parse_annotations("loop at \"nosuch\" max 3", image), InputError);
  EXPECT_THROW(parse_annotations("loop 0x100 max 3", image), InputError);
  EXPECT_THROW(parse_annotations("frobnicate at 0x100", image), InputError);
  EXPECT_THROW(parse_annotations("loop at 0x100 max", image), InputError);
  EXPECT_THROW(parse_annotations("accesses \"main\" region \"undeclared\"", image),
               InputError);
  // Line numbers in messages.
  try {
    parse_annotations("loop at 0x100 max 1\nbroken here", image);
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Annotations, EmptyInputIsFine) {
  const isa::Image image = test_image();
  const AnnotationDb db = parse_annotations("", image);
  EXPECT_TRUE(db.loop_bounds.empty());
  EXPECT_TRUE(db.mode_names().empty());
}

} // namespace
} // namespace wcet::annot
