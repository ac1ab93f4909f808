// tiny32 ISA: encode/decode round trips, assembler/disassembler, image
// and symbol handling.
#include <gtest/gtest.h>

#include <utility>

#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "isa/tiny32.hpp"
#include "support/diag.hpp"
#include "support/rng.hpp"

namespace wcet::isa {
namespace {

TEST(Tiny32, MnemonicsRoundTrip) {
  for (int op = 0; op < num_opcodes; ++op) {
    const auto opcode = static_cast<Opcode>(op);
    const auto parsed = opcode_from_mnemonic(mnemonic(opcode));
    ASSERT_TRUE(parsed.has_value()) << mnemonic(opcode);
    EXPECT_EQ(*parsed, opcode);
  }
  EXPECT_FALSE(opcode_from_mnemonic("bogus").has_value());
}

TEST(Tiny32, RegisterNames) {
  EXPECT_EQ(reg_name(reg_zero), "zero");
  EXPECT_EQ(reg_name(reg_sp), "sp");
  EXPECT_EQ(reg_from_name("r7"), reg_t2);
  EXPECT_EQ(reg_from_name("a0"), reg_a0);
  EXPECT_FALSE(reg_from_name("r16").has_value());
}

// Property: encode(decode) is the identity on valid instructions.
class EncodeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EncodeRoundTrip, AllFieldShapes) {
  const auto op = static_cast<Opcode>(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  for (int trial = 0; trial < 200; ++trial) {
    Inst inst;
    inst.op = op;
    switch (format_of(op)) {
    case Format::r:
      inst.rd = static_cast<std::uint8_t>(rng.below(16));
      inst.rs1 = static_cast<std::uint8_t>(rng.below(16));
      inst.rs2 = static_cast<std::uint8_t>(rng.below(16));
      break;
    case Format::i:
      inst.rd = static_cast<std::uint8_t>(rng.below(16));
      inst.rs1 = static_cast<std::uint8_t>(rng.below(16));
      // andi/ori/... zero-extend; addi-family sign-extends.
      inst.imm = (op == Opcode::andi || op == Opcode::ori || op == Opcode::xori ||
                  op == Opcode::slli || op == Opcode::srli || op == Opcode::srai ||
                  op == Opcode::sltiu || op == Opcode::lui)
                     ? static_cast<std::int64_t>(rng.below(0x10000))
                     : rng.range(-0x8000, 0x7FFF);
      break;
    case Format::b:
      inst.rs1 = static_cast<std::uint8_t>(rng.below(16));
      inst.rs2 = static_cast<std::uint8_t>(rng.below(16));
      inst.imm = rng.range(-0x8000, 0x7FFF) * 4;
      break;
    case Format::j:
      inst.rd = static_cast<std::uint8_t>(rng.below(16));
      inst.imm = rng.range(-0x80000, 0x7FFFF) * 4;
      break;
    case Format::sys:
      break;
    }
    const std::uint32_t word = encode(inst);
    const auto decoded = decode(word);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, inst.op);
    switch (format_of(op)) {
    case Format::r:
      EXPECT_EQ(decoded->rd, inst.rd);
      EXPECT_EQ(decoded->rs1, inst.rs1);
      EXPECT_EQ(decoded->rs2, inst.rs2);
      break;
    case Format::i:
      EXPECT_EQ(decoded->rd, inst.rd);
      EXPECT_EQ(decoded->rs1, inst.rs1);
      EXPECT_EQ(decoded->imm, inst.imm);
      break;
    case Format::b:
      EXPECT_EQ(decoded->rs1, inst.rs1);
      EXPECT_EQ(decoded->rs2, inst.rs2);
      EXPECT_EQ(decoded->imm, inst.imm);
      break;
    case Format::j:
      EXPECT_EQ(decoded->rd, inst.rd);
      EXPECT_EQ(decoded->imm, inst.imm);
      break;
    case Format::sys:
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeRoundTrip,
                         ::testing::Range(0, num_opcodes));

TEST(Tiny32, DecodeRejectsBadOpcodes) {
  EXPECT_FALSE(decode(0xFF000000u).has_value());
}

TEST(Tiny32, InstructionPredicates) {
  Inst call{Opcode::jal, reg_ra, 0, 0, 0x100};
  EXPECT_TRUE(call.is_call());
  EXPECT_TRUE(call.ends_basic_block());
  Inst ret{Opcode::jalr, reg_zero, reg_ra, 0, 0};
  EXPECT_TRUE(ret.is_return());
  Inst branch{Opcode::bltu, 0, 1, 2, 8};
  EXPECT_TRUE(branch.is_conditional_branch());
  EXPECT_EQ(branch.branch_pred(), Pred::lt_u);
  EXPECT_EQ(branch.target(0x1000), 0x100Cu);
  Inst store{Opcode::sw, 1, 2, 0, 4};
  EXPECT_TRUE(store.is_store());
  EXPECT_FALSE(store.writes_rd());
  EXPECT_EQ(store.access_size(), 4);
}

TEST(Assembler, SectionsSymbolsAndData) {
  const Image image = assemble(R"(
        .text 0x2000
        .global f
f:      addi a0, a0, 1
        ret
        .rodata 0x9000
        .global table
table:  .word 1, 2, f, table+4
        .data 0x11000
buf:    .space 8
        .byte 0xAB, 1
        .half 0x1234
msg:    .asciz "ok"
)");
  const Symbol* f = image.find_symbol("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->addr, 0x2000u);
  EXPECT_EQ(f->kind, Symbol::Kind::function);
  EXPECT_EQ(f->size, 8u);

  const Symbol* table = image.find_symbol("table");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->addr, 0x9000u);
  EXPECT_EQ(table->size, 16u);
  EXPECT_EQ(image.read_word(0x9000), 1u);
  EXPECT_EQ(image.read_word(0x9008), 0x2000u);
  EXPECT_EQ(image.read_word(0x900C), 0x9004u);

  EXPECT_EQ(image.read_byte(0x11008), 0xABu);
  EXPECT_EQ(image.read_byte(0x1100A), 0x34u);
  EXPECT_EQ(image.read_byte(0x1100C), 'o');
  EXPECT_EQ(image.describe(0x2004), "f+0x4");
}

TEST(Assembler, PseudoInstructions) {
  const Image image = assemble(R"(
_start: movi t0, 0xDEADBEEF
        movi t1, 42
        mov  a0, t0
        nop
        call target
        j    done
target: ret
done:   halt
)");
  // movi big value -> lui+ori.
  const auto w0 = decode(*image.read_word(0x1000));
  ASSERT_TRUE(w0);
  EXPECT_EQ(w0->op, Opcode::lui);
  EXPECT_EQ(w0->imm, 0xDEAD);
  const auto w1 = decode(*image.read_word(0x1004));
  EXPECT_EQ(w1->op, Opcode::ori);
  EXPECT_EQ(w1->imm, 0xBEEF);
  // movi small -> single instruction.
  const auto w2 = decode(*image.read_word(0x1008));
  EXPECT_EQ(w2->op, Opcode::ori);
  EXPECT_EQ(w2->imm, 42);
}

TEST(Assembler, BranchTargetsAndEntry) {
  const Image image = assemble(R"(
        .entry main
        .global main
main:   beq a0, zero, skip
        addi a1, a1, 1
skip:   halt
)");
  EXPECT_EQ(image.entry(), 0x1000u);
  const auto branch = decode(*image.read_word(0x1000));
  ASSERT_TRUE(branch);
  EXPECT_EQ(branch->target(0x1000), 0x1008u);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("bogus a0, a1\n"), InputError);
  EXPECT_THROW(assemble("addi a0, a1\n"), InputError); // missing operand
  EXPECT_THROW(assemble("j nowhere\n"), InputError);   // undefined symbol
  EXPECT_THROW(assemble("x: ret\nx: ret\n"), InputError); // duplicate label
  EXPECT_THROW(assemble("addi a0, a1, 0x10000\n"), InputError); // imm range
}

TEST(Disassembler, RoundTripText) {
  const Image image = assemble(R"(
f:      addi sp, sp, -16
        sw   ra, 12(sp)
        beq  a0, zero, out
        lw   a1, 0(a0)
out:    halt
)");
  const std::string text = disassemble_range(image, 0x1000, 0x1014);
  EXPECT_NE(text.find("addi sp, sp, -16"), std::string::npos);
  EXPECT_NE(text.find("sw ra, 12(sp)"), std::string::npos);
  EXPECT_NE(text.find("beq"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Image, OverlappingSectionsRejected) {
  Image image;
  image.add_section({"a", 0x1000, std::vector<std::uint8_t>(16), false, true});
  EXPECT_THROW(
      image.add_section({"b", 0x1008, std::vector<std::uint8_t>(16), false, true}),
      InputError);
}

// A section whose last byte sits at 0xffffffff would end at 2^32,
// which Section::end() cannot represent: it is rejected as input, and a
// section just below the limit stays fully readable.
TEST(Image, SectionReachingAddressSpaceEndRejected) {
  EXPECT_THROW(assemble(".data 0xfffffff0\n.word 1, 2, 3, 4\n"), InputError);
  Image image;
  EXPECT_THROW(image.add_section({"top", 0xFFFFFFF0u, std::vector<std::uint8_t>(16), true, false}),
               InputError);
  EXPECT_TRUE(image.sections().empty());
  const Image below = assemble(".data 0xffffffe0\n.word 1, 2, 3, 4\n");
  EXPECT_EQ(below.read_word(0xFFFFFFECu), 4u);
  EXPECT_FALSE(below.read_word(0xFFFFFFEEu)); // straddles the section end
}

TEST(Image, EqualityIsExact) {
  constexpr const char* source = R"(
        .text 0x2000
        .global f
f:      addi a0, a0, 1
        ret
        .data 0x11000
buf:    .word 7
)";
  const Image a = assemble(source);
  ASSERT_EQ(assemble(source), a);

  // Rebuilds `a` with an optional edit to one section byte, one symbol
  // or the entry point.
  const auto rebuilt = [&a](bool flip_byte, bool rename_symbol, bool move_entry) {
    Image out;
    for (Section section : a.sections()) {
      if (flip_byte && section.executable) section.bytes[0] ^= 1;
      out.add_section(std::move(section));
    }
    for (Symbol symbol : a.symbols()) {
      if (rename_symbol && symbol.name == "buf") symbol.name = "bug";
      out.add_symbol(std::move(symbol));
    }
    out.set_entry(move_entry ? a.entry() + 4 : a.entry());
    return out;
  };
  EXPECT_EQ(rebuilt(false, false, false), a);
  EXPECT_NE(rebuilt(true, false, false), a);
  EXPECT_NE(rebuilt(false, true, false), a);
  EXPECT_NE(rebuilt(false, false, true), a);
}

} // namespace
} // namespace wcet::isa
