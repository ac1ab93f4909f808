// Malformed-input rejection: every statically defective input —
// truncated image, out-of-range static branch target, contradictory
// annotations, garbage assembly or mcc source — must leave through a
// typed InputError whose message names the offending construct. None
// of these may surface as an analysis obstruction, an InternalError,
// or (worst) a silently produced bound.
#include <gtest/gtest.h>

#include <string>

#include "annot/annotations.hpp"
#include "isa/assembler.hpp"
#include "isa/tiny32.hpp"
#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "support/diag.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {
namespace {

// Run `fn`, require that it throws InputError, and hand back the
// message so each test can assert the construct is named.
template <typename Fn>
std::string input_error_message(Fn&& fn) {
  try {
    fn();
  } catch (const InputError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected InputError, got: " << e.what();
    return {};
  }
  ADD_FAILURE() << "expected InputError, but no exception was thrown";
  return {};
}

isa::Image valid_image() {
  return isa::assemble(R"(
        .global _start
        .global helper
_start: movi t0, 0
        movi t1, 4
lp:     addi t0, t0, 1
        blt  t0, t1, lp
        halt
helper: ret
)");
}

// ------------------------------------------------------------ images

TEST(MalformedInputs, EntryPointOutsideEverySection) {
  isa::Image image = valid_image();
  image.set_entry(0x90000); // far past every section
  Analyzer analyzer(image, mem::typical_hw(), "");
  const std::string msg = input_error_message([&] { analyzer.analyze({}); });
  EXPECT_NE(msg.find("entry point"), std::string::npos) << msg;
}

TEST(MalformedInputs, TruncatedTextSection) {
  // One complete instruction followed by half a word: straight-line
  // control flow runs off the end of the mapped image.
  isa::Inst nop;
  nop.op = isa::Opcode::addi;
  const std::uint32_t word = isa::encode(nop);

  isa::Section text;
  text.name = ".text";
  text.vaddr = 0x1000;
  text.executable = true;
  for (int i = 0; i < 4; ++i) text.bytes.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
  text.bytes.push_back(0); // truncation: two stray bytes, no full word
  text.bytes.push_back(0);

  isa::Image image;
  image.add_section(std::move(text));
  image.add_symbol({"_start", 0x1000, 8, isa::Symbol::Kind::function});
  image.set_entry(0x1000);

  Analyzer analyzer(image, mem::typical_hw(), "");
  const std::string msg = input_error_message([&] { analyzer.analyze({}); });
  EXPECT_NE(msg.find("straight-line code"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST(MalformedInputs, ConditionalBranchTargetOutOfRange) {
  // Hand-encode `beq r0, r0, +0x1000`: the target lands far outside
  // the one-word section. Static control flow must be rejected as an
  // input defect, naming the branch.
  isa::Inst branch;
  branch.op = isa::Opcode::beq;
  branch.imm = 0x1000;

  isa::Section text;
  text.name = ".text";
  text.vaddr = 0x1000;
  text.executable = true;
  const std::uint32_t word = isa::encode(branch);
  for (int i = 0; i < 4; ++i) text.bytes.push_back(static_cast<std::uint8_t>(word >> (8 * i)));

  isa::Image image;
  image.add_section(std::move(text));
  image.add_symbol({"_start", 0x1000, 4, isa::Symbol::Kind::function});
  image.set_entry(0x1000);

  Analyzer analyzer(image, mem::typical_hw(), "");
  const std::string msg = input_error_message([&] { analyzer.analyze({}); });
  EXPECT_NE(msg.find("conditional branch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unmapped address"), std::string::npos) << msg;
}

TEST(MalformedInputs, OverlappingSections) {
  isa::Image image;
  isa::Section a;
  a.name = ".text";
  a.vaddr = 0x1000;
  a.bytes.resize(16);
  isa::Section b;
  b.name = ".data";
  b.vaddr = 0x1008; // overlaps .text
  b.bytes.resize(16);
  image.add_section(std::move(a));
  const std::string msg = input_error_message([&] { image.add_section(std::move(b)); });
  EXPECT_NE(msg.find("overlaps"), std::string::npos) << msg;
}

TEST(MalformedInputs, UnknownFunctionSymbol) {
  const isa::Image image = valid_image();
  Analyzer analyzer(image, mem::typical_hw(), "");
  const std::string msg = input_error_message([&] { analyzer.analyze_function("no_such_fn", {}); });
  EXPECT_NE(msg.find("no_such_fn"), std::string::npos) << msg;
}

// ---------------------------------------------------------- assembler

TEST(MalformedInputs, GarbageAssembly) {
  const std::string msg =
      input_error_message([] { isa::assemble("this is not assembly at all\n"); });
  EXPECT_NE(msg.find("asm line 1"), std::string::npos) << msg;
}

// --------------------------------------------------------- mcc source

TEST(MalformedInputs, GarbageMccSource) {
  const std::string msg =
      input_error_message([] { mcc::compile_program("int main( { return 0; }\n"); });
  EXPECT_NE(msg.find("mcc line"), std::string::npos) << msg;
}

TEST(MalformedInputs, MccSemanticError) {
  const std::string msg = input_error_message(
      [] { mcc::compile_program("int main(void) { return undeclared_variable; }\n"); });
  EXPECT_NE(msg.find("mcc line"), std::string::npos) << msg;
}

// -------------------------------------------------------- annotations

TEST(MalformedInputs, AnnotationMissingNumber) {
  const isa::Image image = valid_image();
  const std::string msg =
      input_error_message([&] { annot::parse_annotations(R"(loop at "lp" max)", image); });
  EXPECT_NE(msg.find("annotation line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected number"), std::string::npos) << msg;
}

TEST(MalformedInputs, AnnotationUnknownSymbol) {
  const isa::Image image = valid_image();
  const std::string msg = input_error_message(
      [&] { annot::parse_annotations(R"(loop at "nowhere" max 4)", image); });
  EXPECT_NE(msg.find("unknown symbol 'nowhere'"), std::string::npos) << msg;
}

TEST(MalformedInputs, ContradictoryRecursionDepths) {
  const isa::Image image = valid_image();
  const std::string msg = input_error_message([&] {
    annot::parse_annotations(R"(
recursion "helper" max 2
recursion "helper" max 3
)", image);
  });
  EXPECT_NE(msg.find("contradictory recursion depth"), std::string::npos) << msg;
  EXPECT_NE(msg.find("previously 2, now 3"), std::string::npos) << msg;
}

TEST(MalformedInputs, RepeatedIdenticalRecursionDepthIsAccepted) {
  const isa::Image image = valid_image();
  const annot::AnnotationDb db = annot::parse_annotations(R"(
recursion "helper" max 2
recursion "helper" max 2
)", image);
  EXPECT_EQ(db.recursion_depths.at(image.find_symbol("helper")->addr), 2u);
}

TEST(MalformedInputs, DuplicateTargetsStatement) {
  const isa::Image image = valid_image();
  const std::string msg = input_error_message([&] {
    annot::parse_annotations(R"(
targets at "_start" are "helper"
targets at "_start" are "helper", "_start"
)", image);
  });
  EXPECT_NE(msg.find("duplicate targets statement"), std::string::npos) << msg;
}

TEST(MalformedInputs, DuplicateRegionName) {
  const isa::Image image = valid_image();
  const std::string msg = input_error_message([&] {
    annot::parse_annotations(R"(
region "scratch" at 0x40000 size 64 read 2 write 2
region "scratch" at 0x50000 size 64 read 1 write 1
)", image);
  });
  EXPECT_NE(msg.find("duplicate region 'scratch'"), std::string::npos) << msg;
}

// Tighter duplicate loop bounds stay legal: two bounds for one loop
// are both claims the user makes, and the analysis takes the minimum.
TEST(MalformedInputs, DuplicateLoopBoundsMergeToMinimum) {
  const isa::Image image = valid_image();
  const std::string annotations = R"(
loop at "lp" max 10
loop at "lp" max 6
)";
  const annot::AnnotationDb db = annot::parse_annotations(annotations, image);
  ASSERT_EQ(db.loop_bounds.size(), 2u);
  const std::uint32_t lp = image.find_symbol("lp")->addr;
  EXPECT_EQ(db.loop_bounds[0].addr, lp);
  EXPECT_EQ(db.loop_bounds[0].max_iterations, 10u);
  EXPECT_EQ(db.loop_bounds[1].addr, lp);
  EXPECT_EQ(db.loop_bounds[1].max_iterations, 6u);
  const WcetReport report = Analyzer(image, mem::typical_hw(), annotations).analyze({});
  ASSERT_EQ(report.loops.size(), 1u);
  EXPECT_EQ(report.loops[0].annotated_bound, 6u);
}

} // namespace
} // namespace wcet
