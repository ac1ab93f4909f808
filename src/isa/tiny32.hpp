// tiny32: the 32-bit RISC target ISA of this repository.
//
// The paper analyzes binary executables (PowerPC, HCS12X, LEON2). To
// reproduce its phenomena on a fully inspectable substrate we define a
// small load/store architecture with the features the paper's challenges
// require: indirect jumps and calls (function pointers, jump tables,
// returns), conditional branches with signed/unsigned predicates,
// predicated moves (the single-path discussion in Section 2), and
// multiply/divide units.
//
// Encoding: fixed 32-bit words, little-endian memory.
//   [31:24] opcode
//   [23:20] field1   (rd; rs1 for branches)
//   [19:16] field2   (rs1; rs2 for branches)
//   [15:12] field3   (rs2, R-format)
//   [15:0]  imm16    (I/B-format; branch offsets are signed word counts)
//   [19:0]  imm20    (J-format, signed word count)
//
// Registers: r0 hardwired to zero. ABI: r1..r4 = a0..a3 (arguments and
// return value a0), r5..r7 = t0..t2 (caller-saved temps), r8..r12 =
// s0..s4 (callee-saved), r13 = fp, r14 = sp, r15 = ra.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "support/interval.hpp"

namespace wcet::isa {

inline constexpr int num_registers = 16;
inline constexpr std::uint8_t reg_zero = 0;
inline constexpr std::uint8_t reg_a0 = 1;
inline constexpr std::uint8_t reg_a1 = 2;
inline constexpr std::uint8_t reg_a2 = 3;
inline constexpr std::uint8_t reg_a3 = 4;
inline constexpr std::uint8_t reg_t0 = 5;
inline constexpr std::uint8_t reg_t1 = 6;
inline constexpr std::uint8_t reg_t2 = 7;
inline constexpr std::uint8_t reg_s0 = 8;
inline constexpr std::uint8_t reg_fp = 13;
inline constexpr std::uint8_t reg_sp = 14;
inline constexpr std::uint8_t reg_ra = 15;

enum class Opcode : std::uint8_t {
  // R-format ALU.
  add, sub, and_, or_, xor_, sll, srl, sra, slt, sltu,
  mul, mulhu, divu, remu, div_, rem_,
  // Predicated moves: cmovz rd, rs1, rs2 — rd := rs1 if rs2 == 0.
  cmovz, cmovnz,
  // I-format ALU. Logical immediates are zero-extended, arithmetic
  // immediates sign-extended, shift immediates use the low 5 bits.
  addi, andi, ori, xori, slli, srli, srai, slti, sltiu,
  lui, // rd := imm16 << 16
  // Memory (I-format): address = rs1 + sign-extended imm16.
  lw, lh, lhu, lb, lbu, sw, sh, sb,
  // B-format conditional branches: target = pc + 4 + imm16*4.
  beq, bne, blt, bge, bltu, bgeu,
  // Jumps.
  jal,  // J-format: rd := pc+4; pc := pc + 4 + imm20*4
  jalr, // I-format: rd := pc+4; pc := (rs1 + imm16) & ~3
  // System.
  ecall, // environment call; function code in a0 (see EcallFn)
  halt,  // stop the machine
};

inline constexpr int num_opcodes = static_cast<int>(Opcode::halt) + 1;

// Environment-call function codes (in a0 at the ecall).
enum class EcallFn : std::uint32_t {
  exit = 0,    // a1 = exit code
  putchar = 1, // a1 = character
};

enum class Format { r, i, b, j, sys };

// Mnemonic and encoding format of every opcode, indexed by opcode. A
// namespace-scope constant, so decoding a word reads it without a guard
// check or a call.
struct OpInfo {
  const char* name;
  Format format;
};
inline constexpr std::array<OpInfo, num_opcodes> op_table = {{
    {"add", Format::r},   {"sub", Format::r},   {"and", Format::r},
    {"or", Format::r},    {"xor", Format::r},   {"sll", Format::r},
    {"srl", Format::r},   {"sra", Format::r},   {"slt", Format::r},
    {"sltu", Format::r},  {"mul", Format::r},   {"mulhu", Format::r},
    {"divu", Format::r},  {"remu", Format::r},  {"div", Format::r},
    {"rem", Format::r},   {"cmovz", Format::r}, {"cmovnz", Format::r},
    {"addi", Format::i},  {"andi", Format::i},  {"ori", Format::i},
    {"xori", Format::i},  {"slli", Format::i},  {"srli", Format::i},
    {"srai", Format::i},  {"slti", Format::i},  {"sltiu", Format::i},
    {"lui", Format::i},   {"lw", Format::i},    {"lh", Format::i},
    {"lhu", Format::i},   {"lb", Format::i},    {"lbu", Format::i},
    {"sw", Format::i},    {"sh", Format::i},    {"sb", Format::i},
    {"beq", Format::b},   {"bne", Format::b},   {"blt", Format::b},
    {"bge", Format::b},   {"bltu", Format::b},  {"bgeu", Format::b},
    {"jal", Format::j},   {"jalr", Format::i},  {"ecall", Format::sys},
    {"halt", Format::sys},
}};

constexpr Format format_of(Opcode op) { return op_table[static_cast<std::size_t>(op)].format; }
constexpr const char* mnemonic(Opcode op) { return op_table[static_cast<std::size_t>(op)].name; }
std::optional<Opcode> opcode_from_mnemonic(const std::string& name);

// Decoded instruction. `imm` is the sign/zero-extended immediate with
// branch/jump immediates already scaled to *byte* offsets.
struct Inst {
  Opcode op = Opcode::halt;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int64_t imm = 0;

  bool is_conditional_branch() const;
  bool is_call() const; // jal/jalr with rd == ra
  bool is_return() const; // jalr r0, ra, 0
  bool is_load() const;
  bool is_store() const;
  bool is_mem_access() const { return is_load() || is_store(); }
  int access_size() const; // bytes, for loads/stores
  bool writes_rd() const;  // instruction defines rd
  bool ends_basic_block() const;

  // Predicate of a conditional branch (taken condition, rs1 pred rs2).
  Pred branch_pred() const;

  // Branch/jump target for pc-relative transfers.
  std::uint32_t target(std::uint32_t pc) const {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(pc) + 4 + imm);
  }
};

// Encode/decode. decode returns nullopt for invalid opcodes; operand
// fields of unused slots are ignored on decode and must be zero on
// encode (the assembler guarantees this).
std::uint32_t encode(const Inst& inst);
std::optional<Inst> decode(std::uint32_t word);

// Register name helpers ("r4"/"a3"/"sp"...).
std::string reg_name(std::uint8_t reg);
std::optional<std::uint8_t> reg_from_name(const std::string& name);

} // namespace wcet::isa
