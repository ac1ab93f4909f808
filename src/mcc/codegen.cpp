#include "mcc/codegen.hpp"

#include <map>
#include <sstream>

#include "support/diag.hpp"

namespace wcet::mcc {

namespace {

// Base addresses of the emitted sections.
constexpr std::uint32_t text_base = 0x1000;
constexpr std::uint32_t rodata_base = 0x8000;
constexpr std::uint32_t data_base = 0x20000;

[[noreturn]] void fail(int line, const std::string& message) {
  throw InputError("mcc line " + std::to_string(line) + ": codegen: " + message);
}

constexpr int num_s_regs = 5; // s0..s4

const char* s_reg_name(int index) {
  static const char* names[num_s_regs] = {"s0", "s1", "s2", "s3", "s4"};
  WCET_CHECK(index >= 0 && index < num_s_regs, "bad s register");
  return names[index];
}

bool is_compare(Tok op) {
  switch (op) {
  case Tok::lt:
  case Tok::gt:
  case Tok::le:
  case Tok::ge:
  case Tok::eq_eq:
  case Tok::bang_eq:
    return true;
  default:
    return false;
  }
}

class Codegen {
public:
  explicit Codegen(const TranslationUnit& unit) : unit_(unit) {}

  std::string run() {
    text_ << "; generated by mcc\n";
    text_ << "        .text 0x" << std::hex << text_base << std::dec << "\n";
    for (const auto& fn : unit_.functions) {
      if (fn->defined) emit_function(*fn);
    }
    emit_data();
    return text_.str() + rodata_.str() + data_.str();
  }

private:
  // ------------------------------------------------------------- emission
  void ins(const std::string& line) { text_ << "        " << line << '\n'; }
  void label(const std::string& name) { text_ << name << ":\n"; }
  std::string fresh_label(const char* stem) {
    std::ostringstream os;
    os << ".L" << fn_->name << '_' << stem << label_counter_++;
    return os.str();
  }

  void push_t0() {
    ins("addi sp, sp, -4");
    ins("sw   t0, 0(sp)");
  }
  void pop_into(const char* reg) {
    ins(std::string("lw   ") + reg + ", 0(sp)");
    ins("addi sp, sp, 4");
  }

  // ------------------------------------------------------- frame planning
  struct FrameInfo {
    int frame_size = 0;
    std::vector<int> used_s_regs;
  };

  void plan_frame(const Function& fn) {
    int next_s = 0;
    int local_bytes = 0;
    frame_.used_s_regs.clear();

    const auto assign = [&](Symbol& sym, bool allow_reg) {
      const bool scalar = sym.type->kind != Type::Kind::array;
      if (allow_reg && scalar && !sym.address_taken && next_s < num_s_regs) {
        sym.reg = next_s++;
        return;
      }
      sym.reg = -1;
      const int size = (sym.type->size_bytes() + 3) & ~3;
      local_bytes += size;
      sym.frame_offset = -(8 + num_s_regs * 4 + local_bytes); // below saved regs
    };

    for (const auto& param : fn.params) {
      const bool on_stack = fn.is_varargs || param->param_index >= 4;
      if (on_stack && !param->address_taken) {
        // Stack parameters can stay in their caller-provided slot when
        // memory-homed; promote to register if possible.
        if (param->type->kind != Type::Kind::array && next_s < num_s_regs &&
            !param->address_taken) {
          param->reg = next_s++;
        } else {
          param->reg = -1;
          const int index = fn.is_varargs ? param->param_index : param->param_index - 4;
          param->frame_offset = 4 * index; // caller's outgoing slot
        }
      } else if (on_stack) {
        param->reg = -1;
        const int index = fn.is_varargs ? param->param_index : param->param_index - 4;
        param->frame_offset = 4 * index;
      } else {
        assign(*param, true);
      }
    }
    for (const auto& local : fn.locals) {
      assign(*local, true);
    }
    for (int s = 0; s < next_s; ++s) frame_.used_s_regs.push_back(s);
    // ra + fp + all s-slots (reserved even if unused, keeps offsets
    // simple) + locals, rounded up.
    frame_.frame_size = (8 + num_s_regs * 4 + local_bytes + 7) & ~7;
  }

  // --------------------------------------------------------- value slots
  bool in_register(const Symbol& sym) const { return sym.reg >= 0; }

  // Emit "address of symbol" into t0.
  void gen_symbol_addr(const Symbol& sym, int line) {
    switch (sym.kind) {
    case Symbol::Kind::global:
    case Symbol::Kind::function:
      ins("movi t0, " + sym.name);
      return;
    case Symbol::Kind::local:
    case Symbol::Kind::param:
      if (in_register(sym)) fail(line, "internal: address of register variable");
      ins("addi t0, fp, " + std::to_string(sym.frame_offset));
      return;
    }
  }

  void load_by_type(const Type* type, const char* addr_reg) {
    if (type->kind == Type::Kind::char_) {
      ins(std::string("lb   t0, 0(") + addr_reg + ")");
    } else {
      ins(std::string("lw   t0, 0(") + addr_reg + ")");
    }
  }
  void store_by_type(const Type* type, const char* value_reg, const char* addr_reg) {
    if (type->kind == Type::Kind::char_) {
      ins(std::string("sb   ") + value_reg + ", 0(" + addr_reg + ")");
    } else {
      ins(std::string("sw   ") + value_reg + ", 0(" + addr_reg + ")");
    }
  }

  // --------------------------------------------------------- conversions
  // Convert the value in t0 from `from` to `to` (arith conversions only).
  void gen_convert(const Type* from, const Type* to, int line) {
    if (from == to) return;
    if (from->is_float() && !to->is_float() && to->is_arith()) {
      ins("mov  a0, t0");
      ins("call __f32_to_i32");
      ins("mov  t0, a0");
      return;
    }
    if (!from->is_float() && from->is_arith() && to->is_float()) {
      ins("mov  a0, t0");
      ins("call __f32_from_i32");
      ins("mov  t0, a0");
      return;
    }
    (void)line; // integer <-> integer / pointer: representation identical
  }

  // ------------------------------------------------------------- lvalues
  // True when `e` names a register-homed variable.
  const Symbol* reg_homed(const Expr& e) const {
    if (e.kind == Expr::Kind::name && e.symbol != nullptr &&
        (e.symbol->kind == Symbol::Kind::local || e.symbol->kind == Symbol::Kind::param) &&
        in_register(*e.symbol)) {
      return e.symbol;
    }
    return nullptr;
  }

  // True when `e` names a memory-homed word-sized scalar (spilled local
  // or global) that loads/stores with a single instruction. Used for the
  // tight counter/compare sequences that keep spilled loop counters
  // recognizable by loop-bound analysis.
  const Symbol* mem_word_homed(const Expr& e) const {
    if (e.kind != Expr::Kind::name || e.symbol == nullptr) return nullptr;
    const Symbol& sym = *e.symbol;
    if (sym.kind == Symbol::Kind::function) return nullptr;
    if (sym.type->kind == Type::Kind::array || sym.type->size_bytes() != 4) return nullptr;
    if ((sym.kind == Symbol::Kind::local || sym.kind == Symbol::Kind::param) &&
        in_register(sym)) {
      return nullptr;
    }
    return &sym;
  }

  // Load a memory-homed word into `reg` (may clobber t2 for globals).
  void load_mem_word(const Symbol& sym, const char* reg) {
    if (sym.kind == Symbol::Kind::global) {
      ins("movi t2, " + sym.name);
      ins(std::string("lw   ") + reg + ", 0(t2)");
    } else {
      ins(std::string("lw   ") + reg + ", " + std::to_string(sym.frame_offset) + "(fp)");
    }
  }
  void store_mem_word(const Symbol& sym, const char* reg) {
    if (sym.kind == Symbol::Kind::global) {
      ins("movi t2, " + sym.name);
      ins(std::string("sw   ") + reg + ", 0(t2)");
    } else {
      ins(std::string("sw   ") + reg + ", " + std::to_string(sym.frame_offset) + "(fp)");
    }
  }

  // Address of an lvalue into t0.
  void gen_addr(const Expr& e) {
    switch (e.kind) {
    case Expr::Kind::name:
      gen_symbol_addr(*e.symbol, e.line);
      return;
    case Expr::Kind::unary:
      WCET_CHECK(e.op == Tok::star, "bad lvalue");
      gen_value(*e.lhs);
      return;
    case Expr::Kind::index: {
      gen_value(*e.lhs); // decayed pointer value
      push_t0();
      gen_value(*e.rhs);
      // Scale by the undecayed element size (multi-dimensional arrays
      // scale by whole rows).
      emit_scale("t0", e.lhs->type->pointee->size_bytes());
      pop_into("t1");
      ins("add  t0, t1, t0");
      return;
    }
    default:
      fail(e.line, "expression is not an lvalue");
    }
  }

  void emit_scale(const char* reg, int scale) {
    if (scale == 1) return;
    int shift = -1;
    for (int s = 0; s < 31; ++s) {
      if ((1 << s) == scale) shift = s;
    }
    if (shift > 0) {
      ins(std::string("slli ") + reg + ", " + reg + ", " + std::to_string(shift));
    } else if (shift != 0) {
      ins("movi t2, " + std::to_string(scale));
      ins(std::string("mul  ") + reg + ", " + reg + ", t2");
    }
  }

  // ------------------------------------------------------------- rvalues
  // Evaluate `e` into t0.
  void gen_value(const Expr& e) {
    switch (e.kind) {
    case Expr::Kind::int_lit:
      ins("movi t0, " + std::to_string(static_cast<std::uint32_t>(e.int_value)));
      return;
    case Expr::Kind::float_lit: {
      const float f = static_cast<float>(e.float_value);
      std::uint32_t bits;
      __builtin_memcpy(&bits, &f, sizeof bits);
      ins("movi t0, " + std::to_string(bits) + "   ; float " + std::to_string(e.float_value));
      return;
    }
    case Expr::Kind::string_lit: {
      const std::string sym = intern_string(e.text);
      ins("movi t0, " + sym);
      return;
    }
    case Expr::Kind::name: {
      const Symbol& sym = *e.symbol;
      if (sym.kind == Symbol::Kind::function) {
        ins("movi t0, " + sym.name);
        return;
      }
      if (sym.type->kind == Type::Kind::array) {
        gen_symbol_addr(sym, e.line); // arrays decay to their address
        return;
      }
      if (const Symbol* reg = reg_homed(e)) {
        ins(std::string("mov  t0, ") + s_reg_name(reg->reg));
        return;
      }
      gen_symbol_addr(sym, e.line);
      load_by_type(sym.type, "t0");
      return;
    }
    case Expr::Kind::unary:
      gen_unary(e);
      return;
    case Expr::Kind::post_incdec:
      gen_incdec(e, /*post=*/true);
      return;
    case Expr::Kind::binary:
      gen_binary(e);
      return;
    case Expr::Kind::assign:
      gen_assign(e);
      return;
    case Expr::Kind::conditional: {
      const std::string l_else = fresh_label("celse");
      const std::string l_end = fresh_label("cend");
      gen_branch(*e.lhs, "", l_else);
      gen_value(*e.rhs);
      gen_convert(e.rhs->type, e.type, e.line);
      ins("j    " + l_end);
      label(l_else);
      gen_value(*e.third);
      gen_convert(e.third->type, e.type, e.line);
      label(l_end);
      return;
    }
    case Expr::Kind::call:
      gen_call(e);
      return;
    case Expr::Kind::index: {
      gen_addr(e);
      if (e.lhs->type->pointee->kind == Type::Kind::array) return; // row decays
      load_by_type(e.type, "t0");
      return;
    }
    case Expr::Kind::cast:
      gen_value(*e.lhs);
      gen_convert(e.lhs->type, e.cast_type, e.line);
      if (e.cast_type->kind == Type::Kind::char_ && e.lhs->type->is_integer()) {
        // Truncate to signed char semantics.
        ins("slli t0, t0, 24");
        ins("srai t0, t0, 24");
      }
      return;
    case Expr::Kind::sizeof_:
      ins("movi t0, " + std::to_string(e.int_value));
      return;
    }
  }

  void gen_unary(const Expr& e) {
    switch (e.op) {
    case Tok::minus:
      gen_value(*e.lhs);
      gen_convert(e.lhs->type, e.type, e.line);
      if (e.type->is_float()) {
        // Flip the sign bit.
        ins("movi t1, 2147483648");
        ins("xor  t0, t0, t1");
      } else {
        ins("sub  t0, zero, t0");
      }
      return;
    case Tok::tilde:
      gen_value(*e.lhs);
      ins("movi t1, 4294967295");
      ins("xor  t0, t0, t1");
      return;
    case Tok::bang:
      gen_value(*e.lhs);
      ins("sltiu t0, t0, 1"); // t0 = (t0 == 0)
      return;
    case Tok::star:
      gen_value(*e.lhs);
      if (e.lhs->type->pointee->kind == Type::Kind::array) return; // decays
      load_by_type(e.type, "t0");
      return;
    case Tok::amp:
      if (e.lhs->kind == Expr::Kind::name) {
        gen_symbol_addr(*e.lhs->symbol, e.line);
      } else {
        gen_addr(*e.lhs);
      }
      return;
    case Tok::plus_plus:
    case Tok::minus_minus:
      gen_incdec(e, /*post=*/false);
      return;
    default:
      fail(e.line, "bad unary op");
    }
  }

  int incdec_step(const Expr& e) const {
    int step = 1;
    if (e.lhs->type->kind == Type::Kind::ptr) step = e.lhs->type->pointee->size_bytes();
    if (e.op == Tok::minus_minus) step = -step;
    return step;
  }

  void gen_incdec(const Expr& e, bool post) {
    if (e.lhs->type->is_float()) fail(e.line, "++/-- on float not supported");
    const int step = incdec_step(e);
    if (const Symbol* reg = reg_homed(*e.lhs)) {
      const std::string r = s_reg_name(reg->reg);
      if (post) ins("mov  t0, " + r);
      ins("addi " + r + ", " + r + ", " + std::to_string(step));
      if (!post) ins("mov  t0, " + r);
      return;
    }
    if (const Symbol* slot = mem_word_homed(*e.lhs)) {
      load_mem_word(*slot, "t0");
      if (post) ins("mov  t1, t0"); // old value survives in t1
      ins("addi t0, t0, " + std::to_string(step));
      store_mem_word(*slot, "t0");
      if (post) ins("mov  t0, t1");
      return;
    }
    gen_addr(*e.lhs);
    ins("mov  t2, t0");
    load_by_type(e.lhs->type, "t2");
    if (post) {
      ins("addi t1, t0, " + std::to_string(step));
      store_by_type(e.lhs->type, "t1", "t2");
    } else {
      ins("addi t0, t0, " + std::to_string(step));
      store_by_type(e.lhs->type, "t0", "t2");
    }
    return;
  }

  // Emit a binary integer ALU op: t0 = t1 OP t0 (t1 = lhs, t0 = rhs).
  void emit_int_binop(Tok op, const Type* type, int line) {
    const bool uns = type->kind == Type::Kind::uint_ || type->kind == Type::Kind::ptr;
    switch (op) {
    case Tok::plus: ins("add  t0, t1, t0"); return;
    case Tok::minus: ins("sub  t0, t1, t0"); return;
    case Tok::star: ins("mul  t0, t1, t0"); return;
    case Tok::slash: ins(uns ? "divu t0, t1, t0" : "div  t0, t1, t0"); return;
    case Tok::percent: ins(uns ? "remu t0, t1, t0" : "rem  t0, t1, t0"); return;
    case Tok::amp: ins("and  t0, t1, t0"); return;
    case Tok::pipe: ins("or   t0, t1, t0"); return;
    case Tok::caret: ins("xor  t0, t1, t0"); return;
    case Tok::shl: ins("sll  t0, t1, t0"); return;
    case Tok::shr: ins(uns ? "srl  t0, t1, t0" : "sra  t0, t1, t0"); return;
    case Tok::lt: ins(uns ? "sltu t0, t1, t0" : "slt  t0, t1, t0"); return;
    case Tok::gt: ins(uns ? "sltu t0, t0, t1" : "slt  t0, t0, t1"); return;
    case Tok::le:
      ins(uns ? "sltu t0, t0, t1" : "slt  t0, t0, t1");
      ins("xori t0, t0, 1");
      return;
    case Tok::ge:
      ins(uns ? "sltu t0, t1, t0" : "slt  t0, t1, t0");
      ins("xori t0, t0, 1");
      return;
    case Tok::eq_eq:
      ins("sub  t0, t1, t0");
      ins("sltiu t0, t0, 1");
      return;
    case Tok::bang_eq:
      ins("sub  t0, t1, t0");
      ins("sltu t0, zero, t0");
      return;
    default:
      fail(line, "bad integer binary op");
    }
  }

  const char* f32_helper(Tok op, int line) const {
    switch (op) {
    case Tok::plus: return "__f32_add";
    case Tok::minus: return "__f32_sub";
    case Tok::star: return "__f32_mul";
    case Tok::slash: return "__f32_div";
    case Tok::lt: return "__f32_lt";
    case Tok::le: return "__f32_le";
    case Tok::eq_eq: return "__f32_eq";
    default:
      fail(line, "unsupported float operation");
    }
  }

  void gen_binary(const Expr& e) {
    if (e.op == Tok::amp_amp || e.op == Tok::pipe_pipe) {
      const std::string l_false = fresh_label("scf");
      const std::string l_end = fresh_label("sce");
      gen_branch(e, "", l_false);
      ins("movi t0, 1");
      ins("j    " + l_end);
      label(l_false);
      ins("movi t0, 0");
      label(l_end);
      return;
    }

    // Pointer arithmetic keeps the pointer in t1.
    const Type* lt = e.lhs->type;
    const Type* rt = e.rhs->type;
    const bool ptr_left = lt->kind == Type::Kind::ptr && rt->is_integer();
    const bool ptr_right = rt->kind == Type::Kind::ptr && lt->is_integer();
    const bool ptr_diff =
        lt->kind == Type::Kind::ptr && rt->kind == Type::Kind::ptr && e.op == Tok::minus;

    // Float path: operands converted, helper called.
    const bool float_op = !ptr_left && !ptr_right && !ptr_diff &&
                          (lt->is_float() || rt->is_float());
    if (float_op) {
      const Type* ftype = nullptr;
      gen_value(*e.lhs);
      gen_convert(lt, ftype = &float_type(), e.line);
      push_t0();
      gen_value(*e.rhs);
      gen_convert(rt, ftype, e.line);
      // a0 = lhs, a1 = rhs.
      const bool swap = e.op == Tok::gt || e.op == Tok::ge;
      ins(std::string(swap ? "mov  a0, t0" : "mov  a1, t0"));
      pop_into(swap ? "a1" : "a0");
      Tok op = e.op;
      if (op == Tok::gt) op = Tok::lt;
      if (op == Tok::ge) op = Tok::le;
      if (op == Tok::bang_eq) {
        ins("call __f32_eq");
        ins("xori t0, a0, 1");
        ins("mov  t0, t0");
        return;
      }
      ins(std::string("call ") + f32_helper(op, e.line));
      ins("mov  t0, a0");
      return;
    }

    gen_value(*e.lhs);
    if (!ptr_left && !ptr_right && !ptr_diff && is_compare(e.op)) {
      // Integer compare as value: convert lhs to the common type of the
      // operand pair (types are integer here).
    } else if (!ptr_left && !ptr_diff && !ptr_right) {
      gen_convert(lt, e.type, e.line);
    }
    push_t0();
    gen_value(*e.rhs);
    if (ptr_left) {
      emit_scale("t0", lt->pointee->size_bytes());
    } else if (!ptr_right && !ptr_diff && !is_compare(e.op)) {
      gen_convert(rt, e.type, e.line);
    }
    if (ptr_right) {
      // t0 currently holds the pointer; scale the integer on the stack.
      pop_into("t1");
      emit_scale("t1", rt->pointee->size_bytes());
      ins("add  t0, t1, t0");
      return;
    }
    pop_into("t1");
    if (ptr_diff) {
      ins("sub  t0, t1, t0");
      const int size = lt->pointee->size_bytes();
      if (size > 1) {
        int shift = 0;
        while ((1 << shift) < size) ++shift;
        if ((1 << shift) == size) {
          ins("srai t0, t0, " + std::to_string(shift));
        } else {
          ins("movi t1, " + std::to_string(size));
          ins("div  t0, t0, t1");
        }
      }
      return;
    }
    // Comparisons use the operands' common arithmetic type for
    // signedness, not the (int) result type.
    const Type* op_type = e.type;
    if (is_compare(e.op)) {
      if (lt->kind == Type::Kind::ptr || rt->kind == Type::Kind::ptr) {
        op_type = &uint_type();
      } else if (lt->kind == Type::Kind::uint_ || rt->kind == Type::Kind::uint_) {
        op_type = &uint_type();
      } else {
        op_type = &int_type();
      }
    }
    emit_int_binop(e.op, op_type, e.line);
  }

  const Type& float_type() const { return *unit_.types.float_type(); }
  const Type& int_type() const { return *unit_.types.int_type(); }
  const Type& uint_type() const { return *unit_.types.uint_type(); }

  void gen_assign(const Expr& e) {
    const Expr& lhs = *e.lhs;
    const Expr& rhs = *e.rhs;

    // Plain assignment to a register-homed scalar.
    if (e.op == Tok::assign) {
      if (const Symbol* reg = reg_homed(lhs)) {
        const std::string r = s_reg_name(reg->reg);
        // Counter pattern: i = i +/- C  ->  addi (keeps loop-bound
        // analysis applicable; see codegen.hpp).
        if (rhs.kind == Expr::Kind::binary &&
            (rhs.op == Tok::plus || rhs.op == Tok::minus) &&
            reg_homed(*rhs.lhs) == reg && rhs.rhs->kind == Expr::Kind::int_lit &&
            !lhs.type->is_float() && lhs.type->kind != Type::Kind::ptr) {
          const std::int64_t c = rhs.op == Tok::plus ? rhs.rhs->int_value
                                                     : -rhs.rhs->int_value;
          if (c >= -0x8000 && c <= 0x7FFF) {
            ins("addi " + r + ", " + r + ", " + std::to_string(c));
            ins("mov  t0, " + r);
            return;
          }
        }
        gen_value(rhs);
        gen_convert(rhs.type, lhs.type, e.line);
        ins("mov  " + r + ", t0");
        return;
      }
      // Memory-homed counter pattern: i = i +/- C as a tight
      // load/addi/store triple (recognized by slot-counter loop-bound
      // detection).
      if (const Symbol* slot = mem_word_homed(lhs)) {
        if (rhs.kind == Expr::Kind::binary &&
            (rhs.op == Tok::plus || rhs.op == Tok::minus) &&
            rhs.lhs->kind == Expr::Kind::name && rhs.lhs->symbol == slot &&
            rhs.rhs->kind == Expr::Kind::int_lit && !lhs.type->is_float() &&
            lhs.type->kind != Type::Kind::ptr) {
          const std::int64_t c =
              rhs.op == Tok::plus ? rhs.rhs->int_value : -rhs.rhs->int_value;
          if (c >= -0x8000 && c <= 0x7FFF && c != 0) {
            load_mem_word(*slot, "t0");
            ins("addi t0, t0, " + std::to_string(c));
            store_mem_word(*slot, "t0");
            return;
          }
        }
        gen_value(rhs);
        gen_convert(rhs.type, lhs.type, e.line);
        store_mem_word(*slot, "t0");
        return;
      }
      gen_addr(lhs);
      push_t0();
      gen_value(rhs);
      gen_convert(rhs.type, lhs.type, e.line);
      pop_into("t1");
      store_by_type(lhs.type, "t0", "t1");
      return;
    }

    // Compound assignment: op from the token.
    Tok op = Tok::plus;
    switch (e.op) {
    case Tok::plus_assign: op = Tok::plus; break;
    case Tok::minus_assign: op = Tok::minus; break;
    case Tok::star_assign: op = Tok::star; break;
    case Tok::slash_assign: op = Tok::slash; break;
    case Tok::percent_assign: op = Tok::percent; break;
    case Tok::amp_assign: op = Tok::amp; break;
    case Tok::pipe_assign: op = Tok::pipe; break;
    case Tok::caret_assign: op = Tok::caret; break;
    case Tok::shl_assign: op = Tok::shl; break;
    case Tok::shr_assign: op = Tok::shr; break;
    default: fail(e.line, "bad assignment operator");
    }

    if (const Symbol* reg = reg_homed(lhs)) {
      const std::string r = s_reg_name(reg->reg);
      // i += C with integer literal: single addi.
      if ((op == Tok::plus || op == Tok::minus) && rhs.kind == Expr::Kind::int_lit &&
          !lhs.type->is_float()) {
        std::int64_t c = rhs.int_value;
        if (lhs.type->kind == Type::Kind::ptr) c *= lhs.type->pointee->size_bytes();
        if (op == Tok::minus) c = -c;
        if (c >= -0x8000 && c <= 0x7FFF) {
          ins("addi " + r + ", " + r + ", " + std::to_string(c));
          ins("mov  t0, " + r);
          return;
        }
      }
      if (lhs.type->is_float()) {
        ins("mov  t0, " + r);
        push_t0();
        gen_value(rhs);
        gen_convert(rhs.type, &float_type(), e.line);
        ins("mov  a1, t0");
        pop_into("a0");
        ins(std::string("call ") + f32_helper(op, e.line));
        ins("mov  t0, a0");
        ins("mov  " + r + ", t0");
        return;
      }
      gen_value(rhs);
      gen_convert(rhs.type, lhs.type, e.line);
      if (lhs.type->kind == Type::Kind::ptr) {
        emit_scale("t0", lhs.type->pointee->size_bytes());
      }
      ins("mov  t1, " + r);
      emit_int_binop(op, lhs.type, e.line);
      ins("mov  " + r + ", t0");
      return;
    }

    // Memory-homed word counter: i += C as load/addi/store.
    if (const Symbol* slot = mem_word_homed(lhs)) {
      if ((op == Tok::plus || op == Tok::minus) && rhs.kind == Expr::Kind::int_lit &&
          !lhs.type->is_float()) {
        std::int64_t c = rhs.int_value;
        if (lhs.type->kind == Type::Kind::ptr) c *= lhs.type->pointee->size_bytes();
        if (op == Tok::minus) c = -c;
        if (c >= -0x8000 && c <= 0x7FFF && c != 0) {
          load_mem_word(*slot, "t0");
          ins("addi t0, t0, " + std::to_string(c));
          store_mem_word(*slot, "t0");
          return;
        }
      }
    }
    // Memory-homed compound assignment: address computed once.
    gen_addr(lhs);
    push_t0(); // [addr]
    ins("mov  t1, t0");
    load_by_type(lhs.type, "t1"); // t0 = old
    push_t0();                    // [addr, old]
    gen_value(rhs);
    gen_convert(rhs.type, lhs.type->is_float() ? &float_type() : lhs.type, e.line);
    if (lhs.type->is_float()) {
      ins("mov  a1, t0");
      pop_into("a0"); // old
      ins(std::string("call ") + f32_helper(op, e.line));
      ins("mov  t0, a0");
    } else {
      if (lhs.type->kind == Type::Kind::ptr) {
        emit_scale("t0", lhs.type->pointee->size_bytes());
      }
      pop_into("t1"); // old
      emit_int_binop(op, lhs.type, e.line);
    }
    pop_into("t1"); // addr
    store_by_type(lhs.type, "t0", "t1");
  }

  void gen_call(const Expr& e) {
    // Builtin: __va_start() -> pointer to the first anonymous argument.
    if (e.lhs->kind == Expr::Kind::name && e.lhs->text == "__va_start") {
      WCET_CHECK(fn_ != nullptr, "call outside function");
      if (!fn_->is_varargs) fail(e.line, "__va_start outside a variadic function");
      ins("addi t0, fp, " + std::to_string(4 * static_cast<int>(fn_->params.size())));
      return;
    }

    const bool direct = e.lhs->kind == Expr::Kind::name &&
                        e.lhs->symbol->kind == Symbol::Kind::function;
    // Callee signature for vararg detection.
    const Type* callee_type = e.lhs->type;
    if (callee_type->kind == Type::Kind::ptr) callee_type = callee_type->pointee;
    const bool varargs = callee_type->kind == Type::Kind::func && callee_type->sig->varargs;

    if (!direct) {
      gen_value(*e.lhs);
      push_t0(); // callee address
    }
    const int n = static_cast<int>(e.args.size());
    const int n_reg = varargs ? 0 : std::min(n, 4);
    const int n_stack = n - n_reg;
    // Evaluate arguments left to right, each pushed.
    for (int i = 0; i < n; ++i) {
      gen_value(*e.args[static_cast<std::size_t>(i)]);
      // Convert to parameter type when known.
      if (callee_type->kind == Type::Kind::func &&
          static_cast<std::size_t>(i) < callee_type->sig->params.size()) {
        gen_convert(e.args[static_cast<std::size_t>(i)]->type,
                    callee_type->sig->params[static_cast<std::size_t>(i)], e.line);
      }
      push_t0();
    }
    // Allocate the outgoing stack-argument area and copy from temps.
    if (n_stack > 0) {
      ins("addi sp, sp, -" + std::to_string(4 * n_stack));
      for (int j = 0; j < n_stack; ++j) {
        const int arg_index = n_reg + j;
        // Temp for argument k sits at sp + 4*n_stack + 4*(n-1-k).
        const int src = 4 * n_stack + 4 * (n - 1 - arg_index);
        ins("lw   t0, " + std::to_string(src) + "(sp)");
        ins("sw   t0, " + std::to_string(4 * j) + "(sp)");
      }
    }
    // Load register arguments (reverse order so pops line up).
    static const char* arg_regs[4] = {"a0", "a1", "a2", "a3"};
    for (int i = n_reg - 1; i >= 0; --i) {
      const int src = 4 * n_stack + 4 * (n - 1 - i);
      ins(std::string("lw   ") + arg_regs[i] + ", " + std::to_string(src) + "(sp)");
    }
    if (direct) {
      ins("call " + e.lhs->text);
    } else {
      // Callee address below the argument temps.
      const int src = 4 * n_stack + 4 * n;
      ins("lw   t2, " + std::to_string(src) + "(sp)");
      ins("callr t2");
    }
    // Free outgoing area + argument temps (+ callee slot).
    const int to_free = 4 * n_stack + 4 * n + (direct ? 0 : 4);
    if (to_free > 0) ins("addi sp, sp, " + std::to_string(to_free));
    ins("mov  t0, a0");
  }

  // ------------------------------------------------------------ branches
  // Emit control flow: if `e` is true, fall through (or jump to
  // `true_label` when non-empty); otherwise jump to `false_label`.
  void gen_branch(const Expr& e, const std::string& true_label,
                  const std::string& false_label) {
    switch (e.kind) {
    case Expr::Kind::unary:
      if (e.op == Tok::bang) {
        // !x: swap targets.
        if (true_label.empty()) {
          const std::string l_true = fresh_label("not");
          gen_branch(*e.lhs, false_label, l_true);
          label(l_true);
          return;
        }
        gen_branch(*e.lhs, false_label, true_label);
        return;
      }
      break;
    case Expr::Kind::binary:
      if (e.op == Tok::amp_amp) {
        const std::string mid = fresh_label("and");
        gen_branch(*e.lhs, mid, false_label);
        label(mid);
        gen_branch(*e.rhs, true_label, false_label);
        return;
      }
      if (e.op == Tok::pipe_pipe) {
        const std::string l_true = true_label.empty() ? fresh_label("or") : true_label;
        const std::string mid = fresh_label("orm");
        gen_branch(*e.lhs, l_true, mid);
        label(mid);
        gen_branch(*e.rhs, l_true, false_label);
        if (true_label.empty()) label(l_true);
        return;
      }
      if (is_compare(e.op)) {
        gen_compare_branch(e, true_label, false_label);
        return;
      }
      break;
    default:
      break;
    }
    // Generic: evaluate and test against zero.
    gen_value(e);
    if (e.type->is_float()) {
      // Compare against +0.0 / -0.0: clear the sign bit first.
      ins("slli t0, t0, 1");
    }
    ins("beq  t0, zero, " + false_label);
    if (!true_label.empty()) ins("j    " + true_label);
  }

  void gen_compare_branch(const Expr& e, const std::string& true_label,
                          const std::string& false_label) {
    const Type* lt = e.lhs->type;
    const Type* rt = e.rhs->type;
    if (lt->is_float() || rt->is_float()) {
      gen_value(e); // helper returns 0/1
      ins("beq  t0, zero, " + false_label);
      if (!true_label.empty()) ins("j    " + true_label);
      return;
    }
    const bool uns = lt->kind == Type::Kind::ptr || rt->kind == Type::Kind::ptr ||
                     lt->kind == Type::Kind::uint_ || rt->kind == Type::Kind::uint_;

    // Operand registers: prefer direct s-registers and single-load
    // memory words (keeps counters recognizable by loop-bound analysis).
    std::string r1, r2;
    const Symbol* lreg = reg_homed(*e.lhs);
    const Symbol* rreg = reg_homed(*e.rhs);
    const Symbol* lmem = mem_word_homed(*e.lhs);
    const Symbol* rmem = mem_word_homed(*e.rhs);
    if (lreg != nullptr && rreg != nullptr) {
      r1 = s_reg_name(lreg->reg);
      r2 = s_reg_name(rreg->reg);
    } else if (lreg != nullptr) {
      gen_value(*e.rhs);
      r1 = s_reg_name(lreg->reg);
      r2 = "t0";
    } else if (rreg != nullptr) {
      gen_value(*e.lhs);
      r1 = "t0";
      r2 = s_reg_name(rreg->reg);
    } else if (lmem != nullptr) {
      gen_value(*e.rhs);
      load_mem_word(*lmem, "t1"); // evaluation order is unspecified in C
      r1 = "t1";
      r2 = "t0";
    } else if (rmem != nullptr) {
      gen_value(*e.lhs);
      load_mem_word(*rmem, "t1");
      r1 = "t0";
      r2 = "t1";
    } else {
      gen_value(*e.lhs);
      push_t0();
      gen_value(*e.rhs);
      pop_into("t1");
      r1 = "t1";
      r2 = "t0";
    }

    // Branch to TRUE on the condition, then jump to FALSE.
    std::string op;
    bool swap = false;
    switch (e.op) {
    case Tok::lt: op = uns ? "bltu" : "blt"; break;
    case Tok::ge: op = uns ? "bgeu" : "bge"; break;
    case Tok::gt: op = uns ? "bltu" : "blt"; swap = true; break;
    case Tok::le: op = uns ? "bgeu" : "bge"; swap = true; break;
    case Tok::eq_eq: op = "beq"; break;
    case Tok::bang_eq: op = "bne"; break;
    default: fail(e.line, "bad compare");
    }
    if (swap) std::swap(r1, r2);
    if (!true_label.empty()) {
      ins(op + " " + r1 + ", " + r2 + ", " + true_label);
      ins("j    " + false_label);
    } else {
      // Fall through on true: emit the negated branch to FALSE.
      static const std::map<std::string, std::string> negations = {
          {"blt", "bge"}, {"bge", "blt"}, {"bltu", "bgeu"},
          {"bgeu", "bltu"}, {"beq", "bne"}, {"bne", "beq"},
      };
      ins(negations.at(op) + " " + r1 + ", " + r2 + ", " + false_label);
    }
  }

  // ----------------------------------------------------------- statements
  struct LoopContext {
    std::string break_label;
    std::string continue_label;
  };

  void gen_stmt(const Stmt& s) {
    switch (s.kind) {
    case Stmt::Kind::empty:
      return;
    case Stmt::Kind::expr:
      gen_value(*s.expr);
      return;
    case Stmt::Kind::decl: {
      if (!s.expr) return;
      const Symbol& sym = *s.decl_symbol;
      gen_value(*s.expr);
      gen_convert(s.expr->type, sym.type, s.line);
      if (in_register(sym)) {
        ins(std::string("mov  ") + s_reg_name(sym.reg) + ", t0");
      } else {
        ins("addi t1, fp, " + std::to_string(sym.frame_offset));
        store_by_type(sym.type, "t0", "t1");
      }
      return;
    }
    case Stmt::Kind::block:
      for (const auto& child : s.stmts) gen_stmt(*child);
      return;
    case Stmt::Kind::if_: {
      const std::string l_else = fresh_label("else");
      const std::string l_end = fresh_label("endif");
      gen_branch(*s.expr, "", l_else);
      gen_stmt(*s.then_body);
      if (s.else_body) {
        ins("j    " + l_end);
        label(l_else);
        gen_stmt(*s.else_body);
        label(l_end);
      } else {
        label(l_else);
      }
      return;
    }
    case Stmt::Kind::while_: {
      const std::string l_cond = fresh_label("wcond");
      const std::string l_exit = fresh_label("wexit");
      label(l_cond);
      gen_branch(*s.expr, "", l_exit);
      loops_.push_back({l_exit, l_cond});
      gen_stmt(*s.body);
      loops_.pop_back();
      ins("j    " + l_cond);
      label(l_exit);
      return;
    }
    case Stmt::Kind::do_: {
      const std::string l_body = fresh_label("dbody");
      const std::string l_cond = fresh_label("dcond");
      const std::string l_exit = fresh_label("dexit");
      label(l_body);
      loops_.push_back({l_exit, l_cond});
      gen_stmt(*s.body);
      loops_.pop_back();
      label(l_cond);
      gen_branch(*s.expr, l_body, l_exit);
      label(l_exit);
      return;
    }
    case Stmt::Kind::for_: {
      const std::string l_cond = fresh_label("fcond");
      const std::string l_step = fresh_label("fstep");
      const std::string l_exit = fresh_label("fexit");
      if (s.then_body) gen_stmt(*s.then_body); // init clause
      label(l_cond);
      if (s.expr) gen_branch(*s.expr, "", l_exit);
      loops_.push_back({l_exit, l_step});
      gen_stmt(*s.body);
      loops_.pop_back();
      label(l_step);
      if (s.step_expr) gen_value(*s.step_expr);
      ins("j    " + l_cond);
      label(l_exit);
      return;
    }
    case Stmt::Kind::switch_:
      gen_switch(s);
      return;
    case Stmt::Kind::break_:
      if (loops_.empty()) fail(s.line, "break outside loop/switch");
      ins("j    " + loops_.back().break_label);
      return;
    case Stmt::Kind::continue_: {
      // continue targets the innermost LOOP (switch has no continue).
      for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
        if (!it->continue_label.empty()) {
          ins("j    " + it->continue_label);
          return;
        }
      }
      fail(s.line, "continue outside loop");
    }
    case Stmt::Kind::goto_:
      ins("j    .L" + fn_->name + "_user_" + s.label_name);
      return;
    case Stmt::Kind::label:
      label(".L" + fn_->name + "_user_" + s.label_name);
      return;
    case Stmt::Kind::return_:
      if (s.expr) {
        gen_value(*s.expr);
        const FuncSig& sig = *fn_->type->sig;
        gen_convert(s.expr->type, sig.ret, s.line);
        ins("mov  a0, t0");
      }
      ins("j    " + epilogue_label_);
      return;
    }
  }

  void gen_switch(const Stmt& s) {
    gen_value(*s.expr); // selector in t0
    const std::string l_exit = fresh_label("swexit");
    std::vector<std::string> case_labels;
    std::string default_label = l_exit;
    std::int64_t min_case = INT64_MAX;
    std::int64_t max_case = INT64_MIN;
    int value_cases = 0;
    for (const SwitchCase& entry : s.cases) {
      case_labels.push_back(fresh_label("case"));
      if (!entry.is_default) {
        min_case = std::min(min_case, entry.value);
        max_case = std::max(max_case, entry.value);
        ++value_cases;
      }
    }
    for (std::size_t i = 0; i < s.cases.size(); ++i) {
      if (s.cases[i].is_default) default_label = case_labels[i];
    }

    const bool dense = value_cases >= 4 && min_case >= 0 &&
                       max_case - min_case + 1 <= 3 * value_cases &&
                       max_case - min_case < 512;
    if (dense) {
      // Bounds-checked jump table (the decoder's resolvable idiom).
      const std::string table = "__switch_" + fn_->name + std::to_string(label_counter_++);
      const auto span = static_cast<std::size_t>(max_case - min_case + 1);
      std::vector<std::string> entries(span, default_label);
      for (std::size_t i = 0; i < s.cases.size(); ++i) {
        if (!s.cases[i].is_default) {
          entries[static_cast<std::size_t>(s.cases[i].value - min_case)] = case_labels[i];
        }
      }
      if (min_case != 0) ins("addi t0, t0, -" + std::to_string(min_case));
      ins("sltiu t1, t0, " + std::to_string(span));
      ins("beq  t1, zero, " + default_label);
      ins("slli t1, t0, 2");
      ins("movi t2, " + table);
      ins("add  t2, t2, t1");
      ins("lw   t2, 0(t2)");
      ins("jr   t2");
      rodata_ << "        .align 4\n        .global " << table << '\n'
              << table << ":";
      for (const std::string& entry : entries) rodata_ << "\n        .word " << entry;
      rodata_ << '\n';
      rodata_pending_ = true;
    } else {
      // Compare chain.
      for (std::size_t i = 0; i < s.cases.size(); ++i) {
        if (s.cases[i].is_default) continue;
        ins("movi t1, " + std::to_string(static_cast<std::uint32_t>(s.cases[i].value)));
        ins("beq  t0, t1, " + case_labels[i]);
      }
      ins("j    " + default_label);
    }

    loops_.push_back({l_exit, ""}); // break target; no continue
    for (std::size_t i = 0; i < s.cases.size(); ++i) {
      label(case_labels[i]);
      for (const auto& child : s.cases[i].body) gen_stmt(*child);
      // fallthrough to the next case by construction
    }
    loops_.pop_back();
    label(l_exit);
  }

  // ------------------------------------------------------------ functions
  void emit_function(const Function& fn) {
    fn_ = &fn;
    plan_frame(fn);
    epilogue_label_ = ".L" + fn.name + "_ret";

    text_ << "\n        .global " << fn.name << '\n';
    label(fn.name);
    const int frame = frame_.frame_size;
    ins("addi sp, sp, -" + std::to_string(frame));
    ins("sw   ra, " + std::to_string(frame - 4) + "(sp)");
    ins("sw   fp, " + std::to_string(frame - 8) + "(sp)");
    for (const int s : frame_.used_s_regs) {
      ins(std::string("sw   ") + s_reg_name(s) + ", " +
          std::to_string(frame - 12 - 4 * s) + "(sp)");
    }
    ins("addi fp, sp, " + std::to_string(frame));

    // Home the parameters.
    static const char* arg_regs[4] = {"a0", "a1", "a2", "a3"};
    for (const auto& param : fn.params) {
      const int index = param->param_index;
      const bool on_stack = fn.is_varargs || index >= 4;
      if (!on_stack) {
        if (in_register(*param)) {
          ins(std::string("mov  ") + s_reg_name(param->reg) + ", " + arg_regs[index]);
        } else {
          ins("addi t1, fp, " + std::to_string(param->frame_offset));
          store_by_type(param->type, arg_regs[index], "t1");
        }
      } else if (in_register(*param)) {
        const int slot = fn.is_varargs ? index : index - 4;
        ins(std::string("lw   ") + s_reg_name(param->reg) + ", " +
            std::to_string(4 * slot) + "(fp)");
      }
      // Memory-homed stack params stay in the caller's outgoing slot.
    }

    for (const auto& stmt : fn.body) gen_stmt(*stmt);

    label(epilogue_label_);
    ins("lw   ra, " + std::to_string(frame - 4) + "(sp)");
    ins("lw   fp, " + std::to_string(frame - 8) + "(sp)");
    for (const int s : frame_.used_s_regs) {
      ins(std::string("lw   ") + s_reg_name(s) + ", " +
          std::to_string(frame - 12 - 4 * s) + "(sp)");
    }
    ins("addi sp, sp, " + std::to_string(frame));
    ins("ret");
    fn_ = nullptr;
  }

  // ----------------------------------------------------------------- data
  std::string intern_string(const std::string& bytes) {
    const auto it = strings_.find(bytes);
    if (it != strings_.end()) return it->second;
    const std::string name = ".Lstr" + std::to_string(strings_.size());
    strings_.emplace(bytes, name);
    std::string escaped;
    for (const char c : bytes) {
      switch (c) {
      case '\n': escaped += "\\n"; break;
      case '\t': escaped += "\\t"; break;
      case '\\': escaped += "\\\\"; break;
      case '"': escaped += "\\\""; break;
      case '\0': escaped += "\\0"; break;
      default: escaped.push_back(c);
      }
    }
    rodata_ << name << ": .asciz \"" << escaped << "\"\n";
    rodata_pending_ = true;
    return name;
  }

  void emit_data() {
    std::ostringstream rodata_head;
    rodata_head << "\n        .rodata 0x" << std::hex << rodata_base << std::dec
                << "\n";
    std::ostringstream data;
    data << "\n        .data 0x" << std::hex << data_base << std::dec << "\n";
    bool any_data = false;
    for (const auto& g : unit_.globals) {
      if (g->kind != Symbol::Kind::global) continue;
      std::ostringstream& out = g->is_const ? rodata_ : data;
      if (g->is_const) rodata_pending_ = true;
      if (!g->is_const) any_data = true;
      out << "        .align 4\n        .global " << g->name << '\n' << g->name << ":";
      if (g->has_init) {
        const bool bytes = g->type->kind == Type::Kind::array &&
                           g->type->pointee->size_bytes() == 1;
        if (bytes) {
          out << "\n        .byte ";
          for (std::size_t i = 0; i < g->init_bytes.size(); ++i) {
            if (i != 0) out << ", ";
            out << static_cast<int>(g->init_bytes[i]);
          }
        } else {
          for (std::size_t i = 0; i + 3 < g->init_bytes.size(); i += 4) {
            const int word_index = static_cast<int>(i / 4);
            std::string ref;
            for (const auto& [index, name] : g->init_symbols) {
              if (index == word_index) ref = name;
            }
            if (!ref.empty()) {
              out << "\n        .word " << ref;
              continue;
            }
            std::uint32_t w = 0;
            for (int b = 3; b >= 0; --b) w = (w << 8) | g->init_bytes[i + static_cast<std::size_t>(b)];
            out << "\n        .word " << w;
          }
        }
        const int declared = g->type->size_bytes();
        const int given = static_cast<int>(g->init_bytes.size());
        if (given < declared) out << "\n        .space " << (declared - given);
      } else {
        out << "\n        .space " << g->type->size_bytes();
      }
      out << '\n';
    }
    // Order: rodata section header + pooled strings/tables, then data.
    const std::string rodata_body = rodata_.str();
    rodata_.str("");
    if (rodata_pending_ || !rodata_body.empty()) {
      rodata_ << rodata_head.str() << rodata_body;
    }
    const std::string data_body = data.str();
    if (any_data) data_ << data_body;
  }

  const TranslationUnit& unit_;
  std::ostringstream text_;
  std::ostringstream rodata_;
  std::ostringstream data_;
  bool rodata_pending_ = false;
  std::map<std::string, std::string> strings_;
  const Function* fn_ = nullptr;
  FrameInfo frame_;
  std::string epilogue_label_;
  int label_counter_ = 0;
  std::vector<LoopContext> loops_;
};

} // namespace

std::string generate(const TranslationUnit& unit) {
  return Codegen(unit).run();
}

} // namespace wcet::mcc
