#include "mcc/sema.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace wcet::mcc {

// ------------------------------------------------------------- Type impl

int Type::size_bytes() const {
  switch (kind) {
  case Kind::void_: return 1; // void* arithmetic scales by 1
  case Kind::char_: return 1;
  case Kind::int_:
  case Kind::uint_:
  case Kind::float_:
  case Kind::ptr:
  case Kind::func:
    return 4;
  case Kind::array:
    return array_len * pointee->size_bytes();
  }
  return 4;
}

TypeTable::TypeTable() {
  const auto make = [this](Type::Kind kind) {
    Type t;
    t.kind = kind;
    arena_.push_back(std::move(t));
    return &arena_.back();
  };
  void_ = make(Type::Kind::void_);
  int_ = make(Type::Kind::int_);
  uint_ = make(Type::Kind::uint_);
  char_ = make(Type::Kind::char_);
  float_ = make(Type::Kind::float_);
}

const Type* TypeTable::pointer_to(const Type* pointee) {
  for (const Type& t : arena_) {
    if (t.kind == Type::Kind::ptr && t.pointee == pointee) return &t;
  }
  Type t;
  t.kind = Type::Kind::ptr;
  t.pointee = pointee;
  arena_.push_back(std::move(t));
  return &arena_.back();
}

const Type* TypeTable::array_of(const Type* element, int length) {
  for (const Type& t : arena_) {
    if (t.kind == Type::Kind::array && t.pointee == element && t.array_len == length) {
      return &t;
    }
  }
  Type t;
  t.kind = Type::Kind::array;
  t.pointee = element;
  t.array_len = length;
  arena_.push_back(std::move(t));
  return &arena_.back();
}

const Type* TypeTable::function(FuncSig sig) {
  Type t;
  t.kind = Type::Kind::func;
  t.sig = std::make_unique<FuncSig>(std::move(sig));
  arena_.push_back(std::move(t));
  return &arena_.back();
}

Function* TranslationUnit::find_function(const std::string& name) const {
  for (const auto& fn : functions) {
    if (fn->name == name) return fn.get();
  }
  return nullptr;
}

// ------------------------------------------------------------------ sema

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw InputError("mcc line " + std::to_string(line) + ": " + message);
}

class Sema {
public:
  explicit Sema(TranslationUnit& unit) : unit_(unit), types_(unit.types) {}

  void run() {
    for (auto& fn : unit_.functions) {
      if (!fn->defined) continue;
      current_ = fn.get();
      for (auto& stmt : fn->body) visit(*stmt);
    }
  }

private:
  // Usual arithmetic conversions.
  const Type* common_arith(const Type* a, const Type* b, int line) const {
    if (!a->is_arith() || !b->is_arith()) fail(line, "arithmetic operands required");
    if (a->is_float() || b->is_float()) return types_.float_type();
    if (a->kind == Type::Kind::uint_ || b->kind == Type::Kind::uint_) {
      return types_.uint_type();
    }
    return types_.int_type();
  }

  static const Type* decay(const Type* t, TypeTable& types) {
    if (t->kind == Type::Kind::array) return types.pointer_to(t->pointee);
    return t;
  }

  bool is_lvalue(const Expr& e) const {
    switch (e.kind) {
    case Expr::Kind::name:
      return e.symbol != nullptr && e.symbol->kind != Symbol::Kind::function;
    case Expr::Kind::index:
      return true;
    case Expr::Kind::unary:
      return e.op == Tok::star;
    default:
      return false;
    }
  }

  void visit_expr(Expr& e) {
    switch (e.kind) {
    case Expr::Kind::int_lit:
      // 'u'-suffixed literals and values that do not fit a signed int
      // are unsigned (C's hex-literal rule).
      e.type = (e.is_unsigned_literal || e.int_value > 0x7FFFFFFFll)
                   ? types_.uint_type()
                   : types_.int_type();
      return;
    case Expr::Kind::float_lit:
      e.type = types_.float_type();
      return;
    case Expr::Kind::string_lit:
      e.type = types_.pointer_to(types_.char_type());
      return;
    case Expr::Kind::name:
      e.type = decay(e.symbol->type, types_);
      if (e.symbol->kind == Symbol::Kind::function) {
        e.type = types_.pointer_to(e.symbol->type);
      }
      return;
    case Expr::Kind::unary: {
      visit_expr(*e.lhs);
      const Type* t = e.lhs->type;
      switch (e.op) {
      case Tok::minus:
        if (!t->is_arith()) fail(e.line, "operand of unary - must be arithmetic");
        e.type = t->is_float() ? t : common_arith(t, types_.int_type(), e.line);
        return;
      case Tok::tilde:
        if (!t->is_integer()) fail(e.line, "operand of ~ must be integer");
        e.type = common_arith(t, types_.int_type(), e.line);
        return;
      case Tok::bang:
        e.type = types_.int_type();
        return;
      case Tok::star:
        if (!t->is_pointer_like()) fail(e.line, "cannot dereference non-pointer");
        e.type = decay(t->pointee, types_);
        return;
      case Tok::amp: {
        if (e.lhs->kind == Expr::Kind::name) {
          e.lhs->symbol->address_taken = true;
          if (e.lhs->symbol->kind == Symbol::Kind::function) {
            e.type = types_.pointer_to(e.lhs->symbol->type);
            return;
          }
          e.type = types_.pointer_to(e.lhs->symbol->type->kind == Type::Kind::array
                                         ? e.lhs->symbol->type->pointee
                                         : e.lhs->symbol->type);
          return;
        }
        if (!is_lvalue(*e.lhs)) fail(e.line, "cannot take address of rvalue");
        e.type = types_.pointer_to(e.lhs->type);
        return;
      }
      case Tok::plus_plus:
      case Tok::minus_minus:
        if (!is_lvalue(*e.lhs)) fail(e.line, "++/-- needs an lvalue");
        e.type = e.lhs->type;
        return;
      default:
        fail(e.line, "bad unary operator");
      }
    }
    case Expr::Kind::post_incdec:
      visit_expr(*e.lhs);
      if (!is_lvalue(*e.lhs)) fail(e.line, "++/-- needs an lvalue");
      e.type = e.lhs->type;
      return;
    case Expr::Kind::binary: {
      visit_expr(*e.lhs);
      visit_expr(*e.rhs);
      const Type* a = e.lhs->type;
      const Type* b = e.rhs->type;
      switch (e.op) {
      case Tok::plus:
      case Tok::minus:
        if (a->kind == Type::Kind::ptr && b->is_integer()) {
          e.type = a;
          return;
        }
        if (e.op == Tok::plus && a->is_integer() && b->kind == Type::Kind::ptr) {
          e.type = b;
          return;
        }
        if (e.op == Tok::minus && a->kind == Type::Kind::ptr &&
            b->kind == Type::Kind::ptr) {
          e.type = types_.int_type();
          return;
        }
        e.type = common_arith(a, b, e.line);
        return;
      case Tok::star:
      case Tok::slash:
        e.type = common_arith(a, b, e.line);
        return;
      case Tok::percent:
      case Tok::amp:
      case Tok::pipe:
      case Tok::caret:
      case Tok::shl:
      case Tok::shr:
        if (!a->is_integer() || !b->is_integer()) {
          fail(e.line, "integer operands required");
        }
        e.type = e.op == Tok::shl || e.op == Tok::shr
                     ? common_arith(a, types_.int_type(), e.line)
                     : common_arith(a, b, e.line);
        return;
      case Tok::lt:
      case Tok::gt:
      case Tok::le:
      case Tok::ge:
      case Tok::eq_eq:
      case Tok::bang_eq:
      case Tok::amp_amp:
      case Tok::pipe_pipe:
        e.type = types_.int_type();
        return;
      default:
        fail(e.line, "bad binary operator");
      }
    }
    case Expr::Kind::assign: {
      visit_expr(*e.lhs);
      visit_expr(*e.rhs);
      if (!is_lvalue(*e.lhs)) fail(e.line, "assignment needs an lvalue");
      e.type = e.lhs->type;
      return;
    }
    case Expr::Kind::conditional: {
      visit_expr(*e.lhs);
      visit_expr(*e.rhs);
      visit_expr(*e.third);
      const Type* a = e.rhs->type;
      const Type* b = e.third->type;
      if (a->is_arith() && b->is_arith()) {
        e.type = common_arith(a, b, e.line);
      } else {
        e.type = a; // pointers: take the then-type
      }
      return;
    }
    case Expr::Kind::call: {
      visit_expr(*e.lhs);
      for (auto& arg : e.args) visit_expr(*arg);
      const Type* callee = e.lhs->type;
      if (callee->kind == Type::Kind::ptr && callee->pointee->kind == Type::Kind::func) {
        callee = callee->pointee;
      }
      if (callee->kind != Type::Kind::func) fail(e.line, "call of non-function");
      const FuncSig& sig = *callee->sig;
      if (e.args.size() < sig.params.size() ||
          (!sig.varargs && e.args.size() != sig.params.size())) {
        fail(e.line, "wrong number of arguments");
      }
      e.type = sig.ret;
      return;
    }
    case Expr::Kind::index: {
      visit_expr(*e.lhs);
      visit_expr(*e.rhs);
      if (!e.lhs->type->is_pointer_like()) fail(e.line, "indexing a non-pointer");
      if (!e.rhs->type->is_integer()) fail(e.line, "array index must be integer");
      e.type = decay(e.lhs->type->pointee, types_);
      return;
    }
    case Expr::Kind::cast:
      visit_expr(*e.lhs);
      e.type = e.cast_type;
      return;
    case Expr::Kind::sizeof_:
      e.type = types_.int_type();
      return;
    }
  }

  void visit(Stmt& s) {
    switch (s.kind) {
    case Stmt::Kind::expr:
      visit_expr(*s.expr);
      return;
    case Stmt::Kind::decl:
      if (s.expr) {
        visit_expr(*s.expr);
        if (s.decl_symbol->type->kind == Type::Kind::array) {
          fail(s.line, "local array initializers are not supported");
        }
      }
      return;
    case Stmt::Kind::block:
      for (auto& child : s.stmts) visit(*child);
      return;
    case Stmt::Kind::if_:
      visit_expr(*s.expr);
      visit(*s.then_body);
      if (s.else_body) visit(*s.else_body);
      return;
    case Stmt::Kind::while_:
    case Stmt::Kind::do_:
      visit_expr(*s.expr);
      visit(*s.body);
      return;
    case Stmt::Kind::for_:
      if (s.then_body) visit(*s.then_body);
      if (s.expr) visit_expr(*s.expr);
      if (s.step_expr) visit_expr(*s.step_expr);
      visit(*s.body);
      return;
    case Stmt::Kind::switch_:
      visit_expr(*s.expr);
      if (!s.expr->type->is_integer()) fail(s.line, "switch requires an integer");
      for (auto& entry : s.cases) {
        for (auto& child : entry.body) visit(*child);
      }
      return;
    case Stmt::Kind::return_:
      if (s.expr) visit_expr(*s.expr);
      return;
    case Stmt::Kind::break_:
    case Stmt::Kind::continue_:
    case Stmt::Kind::goto_:
    case Stmt::Kind::label:
    case Stmt::Kind::empty:
      return;
    }
  }

  TranslationUnit& unit_;
  TypeTable& types_;
  Function* current_ = nullptr;
};

} // namespace

void analyze(TranslationUnit& unit) { Sema(unit).run(); }

} // namespace wcet::mcc
