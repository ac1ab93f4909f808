#include "isa/tiny32.hpp"

#include <unordered_map>

#include "support/diag.hpp"

namespace wcet::isa {

namespace {

constexpr bool imm_is_signed(Opcode op) {
  switch (op) {
  case Opcode::andi:
  case Opcode::ori:
  case Opcode::xori:
  case Opcode::slli:
  case Opcode::srli:
  case Opcode::srai:
  case Opcode::sltiu:
  case Opcode::lui:
    return false;
  default:
    return true;
  }
}

} // namespace

std::optional<Opcode> opcode_from_mnemonic(const std::string& name) {
  static const auto map = [] {
    std::unordered_map<std::string, Opcode> m;
    for (int i = 0; i < num_opcodes; ++i) {
      m.emplace(op_table[static_cast<std::size_t>(i)].name, static_cast<Opcode>(i));
    }
    return m;
  }();
  const auto it = map.find(name);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

bool Inst::is_conditional_branch() const {
  switch (op) {
  case Opcode::beq:
  case Opcode::bne:
  case Opcode::blt:
  case Opcode::bge:
  case Opcode::bltu:
  case Opcode::bgeu:
    return true;
  default:
    return false;
  }
}

bool Inst::is_call() const {
  return (op == Opcode::jal || op == Opcode::jalr) && rd == reg_ra;
}

bool Inst::is_return() const {
  return op == Opcode::jalr && rd == reg_zero && rs1 == reg_ra && imm == 0;
}

bool Inst::is_load() const {
  switch (op) {
  case Opcode::lw:
  case Opcode::lh:
  case Opcode::lhu:
  case Opcode::lb:
  case Opcode::lbu:
    return true;
  default:
    return false;
  }
}

bool Inst::is_store() const {
  switch (op) {
  case Opcode::sw:
  case Opcode::sh:
  case Opcode::sb:
    return true;
  default:
    return false;
  }
}

int Inst::access_size() const {
  switch (op) {
  case Opcode::lw:
  case Opcode::sw:
    return 4;
  case Opcode::lh:
  case Opcode::lhu:
  case Opcode::sh:
    return 2;
  case Opcode::lb:
  case Opcode::lbu:
  case Opcode::sb:
    return 1;
  default:
    return 0;
  }
}

bool Inst::writes_rd() const {
  if (is_store() || is_conditional_branch()) return false;
  switch (op) {
  case Opcode::ecall:
  case Opcode::halt:
    return false;
  default:
    return rd != reg_zero;
  }
}

bool Inst::ends_basic_block() const {
  // ecall terminates a block because the exit environment call leaves
  // the task mid-stream; modeling it as a terminator keeps BCET sound.
  return is_conditional_branch() || op == Opcode::jal || op == Opcode::jalr ||
         op == Opcode::halt || op == Opcode::ecall;
}

Pred Inst::branch_pred() const {
  switch (op) {
  case Opcode::beq: return Pred::eq;
  case Opcode::bne: return Pred::ne;
  case Opcode::blt: return Pred::lt_s;
  case Opcode::bge: return Pred::ge_s;
  case Opcode::bltu: return Pred::lt_u;
  case Opcode::bgeu: return Pred::ge_u;
  default:
    internal_fail(__FILE__, __LINE__, "branch_pred on non-branch");
  }
}

std::uint32_t encode(const Inst& inst) {
  const std::uint32_t op = static_cast<std::uint32_t>(inst.op) << 24;
  const auto f1 = [&](std::uint8_t r) { return static_cast<std::uint32_t>(r & 0xF) << 20; };
  const auto f2 = [&](std::uint8_t r) { return static_cast<std::uint32_t>(r & 0xF) << 16; };
  const auto f3 = [&](std::uint8_t r) { return static_cast<std::uint32_t>(r & 0xF) << 12; };
  switch (format_of(inst.op)) {
  case Format::r:
    return op | f1(inst.rd) | f2(inst.rs1) | f3(inst.rs2);
  case Format::i: {
    std::int64_t imm = inst.imm;
    WCET_CHECK(imm >= -0x8000 && imm <= 0xFFFF, "imm16 out of range for " +
                                                    std::string(mnemonic(inst.op)));
    return op | f1(inst.rd) | f2(inst.rs1) | (static_cast<std::uint32_t>(imm) & 0xFFFF);
  }
  case Format::b: {
    WCET_CHECK(inst.imm % 4 == 0, "branch offset not word aligned");
    const std::int64_t words = inst.imm / 4;
    WCET_CHECK(words >= -0x8000 && words <= 0x7FFF, "branch offset out of range");
    return op | f1(inst.rs1) | f2(inst.rs2) | (static_cast<std::uint32_t>(words) & 0xFFFF);
  }
  case Format::j: {
    WCET_CHECK(inst.imm % 4 == 0, "jump offset not word aligned");
    const std::int64_t words = inst.imm / 4;
    WCET_CHECK(words >= -0x80000 && words <= 0x7FFFF, "jump offset out of range");
    return op | f1(inst.rd) | (static_cast<std::uint32_t>(words) & 0xFFFFF);
  }
  case Format::sys:
    return op;
  }
  internal_fail(__FILE__, __LINE__, "bad format");
}

std::optional<Inst> decode(std::uint32_t word) {
  const std::uint32_t opbits = word >> 24;
  if (opbits >= static_cast<std::uint32_t>(num_opcodes)) return std::nullopt;
  Inst inst;
  inst.op = static_cast<Opcode>(opbits);
  const auto f1 = static_cast<std::uint8_t>((word >> 20) & 0xF);
  const auto f2 = static_cast<std::uint8_t>((word >> 16) & 0xF);
  const auto f3 = static_cast<std::uint8_t>((word >> 12) & 0xF);
  const auto imm16 = static_cast<std::uint32_t>(word & 0xFFFF);
  switch (format_of(inst.op)) {
  case Format::r:
    inst.rd = f1;
    inst.rs1 = f2;
    inst.rs2 = f3;
    break;
  case Format::i:
    inst.rd = f1;
    inst.rs1 = f2;
    inst.imm = imm_is_signed(inst.op) ? static_cast<std::int16_t>(imm16)
                                      : static_cast<std::int64_t>(imm16);
    break;
  case Format::b:
    inst.rs1 = f1;
    inst.rs2 = f2;
    inst.imm = static_cast<std::int64_t>(static_cast<std::int16_t>(imm16)) * 4;
    break;
  case Format::j: {
    inst.rd = f1;
    std::int64_t words = static_cast<std::int64_t>(word & 0xFFFFF);
    if (words & 0x80000) words -= 0x100000;
    inst.imm = words * 4;
    break;
  }
  case Format::sys:
    break;
  }
  return inst;
}

std::string reg_name(std::uint8_t reg) {
  static const char* names[num_registers] = {
      "zero", "a0", "a1", "a2", "a3", "t0", "t1", "t2",
      "s0",   "s1", "s2", "s3", "s4", "fp", "sp", "ra"};
  WCET_CHECK(reg < num_registers, "register out of range");
  return names[reg];
}

std::optional<std::uint8_t> reg_from_name(const std::string& name) {
  static const auto map = [] {
    std::unordered_map<std::string, std::uint8_t> m;
    for (std::uint8_t r = 0; r < num_registers; ++r) {
      m.emplace(reg_name(r), r);
      std::string alias = "r";
      alias += std::to_string(r);
      m.emplace(std::move(alias), r);
    }
    return m;
  }();
  const auto it = map.find(name);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

} // namespace wcet::isa
