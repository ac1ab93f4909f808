// mcc: a MISRA-oriented C subset compiler targeting tiny32.
//
// The subset covers what the paper's Section 4.2 experiments need:
// int/unsigned/char/float scalars, pointers (including function
// pointers), arrays, all C control flow (if/while/do/for/switch/goto/
// continue/break/return), varargs declarations, and the library calls
// the rules talk about (malloc, setjmp/longjmp). No structs, typedefs or
// 64-bit types — see DESIGN.md "Non-goals".
//
// This header defines tokens, types and the AST shared by the lexer,
// parser, semantic checker, MISRA checker and code generator.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace wcet::mcc {

// ----------------------------------------------------------------- tokens

enum class Tok {
  end, identifier, int_literal, float_literal, string_literal, char_literal,
  // keywords
  kw_int, kw_unsigned, kw_char, kw_float, kw_void, kw_const, kw_static,
  kw_if, kw_else, kw_while, kw_do, kw_for, kw_switch, kw_case, kw_default,
  kw_break, kw_continue, kw_goto, kw_return, kw_sizeof,
  // punctuation / operators
  lparen, rparen, lbrace, rbrace, lbracket, rbracket, semi, comma, colon,
  question, ellipsis,
  assign, plus_assign, minus_assign, star_assign, slash_assign, percent_assign,
  amp_assign, pipe_assign, caret_assign, shl_assign, shr_assign,
  plus, minus, star, slash, percent, amp, pipe, caret, tilde, bang,
  shl, shr, lt, gt, le, ge, eq_eq, bang_eq, amp_amp, pipe_pipe,
  plus_plus, minus_minus,
};

struct Token {
  Tok kind = Tok::end;
  std::string text;      // identifier / literal spelling
  std::int64_t int_value = 0;
  double float_value = 0;
  bool is_unsigned = false; // 'u' suffix on an integer literal
  int line = 0;
};

// ------------------------------------------------------------------ types

struct Type;

struct FuncSig {
  const Type* ret = nullptr;
  std::vector<const Type*> params;
  bool varargs = false;
};

struct Type {
  enum class Kind { void_, int_, uint_, char_, float_, ptr, array, func };
  Kind kind = Kind::int_;
  const Type* pointee = nullptr; // ptr/array element, func: see sig
  int array_len = 0;
  std::unique_ptr<FuncSig> sig;  // only for Kind::func

  bool is_integer() const {
    return kind == Kind::int_ || kind == Kind::uint_ || kind == Kind::char_;
  }
  bool is_arith() const { return is_integer() || kind == Kind::float_; }
  bool is_pointer_like() const { return kind == Kind::ptr || kind == Kind::array; }
  bool is_float() const { return kind == Kind::float_; }
  int size_bytes() const;
};

// Type arena with interning of the basic types.
class TypeTable {
public:
  TypeTable();
  const Type* void_type() const { return void_; }
  const Type* int_type() const { return int_; }
  const Type* uint_type() const { return uint_; }
  const Type* char_type() const { return char_; }
  const Type* float_type() const { return float_; }
  const Type* pointer_to(const Type* pointee);
  const Type* array_of(const Type* element, int length);
  const Type* function(FuncSig sig);

private:
  std::deque<Type> arena_;
  const Type* void_;
  const Type* int_;
  const Type* uint_;
  const Type* char_;
  const Type* float_;
};

// ------------------------------------------------------------------- AST

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

struct Symbol; // variable or function, resolved by sema

struct Expr {
  enum class Kind {
    int_lit, float_lit, string_lit,
    name,        // resolved to `symbol` by sema
    unary,       // op: - ~ ! * & ++pre --pre
    post_incdec, // ++ / -- postfix (op is plus_plus/minus_minus)
    binary,      // arithmetic / relational / logical (no short-circuit fold)
    assign,      // op == Tok::assign or compound
    conditional, // a ? b : c
    call,        // callee + args
    index,       // base[index]
    cast,        // (type) operand
    sizeof_,     // sizeof(type) -> int_lit after sema
  };
  Kind kind = Kind::int_lit;
  int line = 0;
  Tok op = Tok::end;
  bool is_unsigned_literal = false;
  std::int64_t int_value = 0;
  double float_value = 0;
  std::string text; // name spelling / string literal bytes
  const Type* type = nullptr; // filled by sema
  const Type* cast_type = nullptr;
  Symbol* symbol = nullptr;   // for Kind::name
  ExprPtr lhs, rhs, third;    // operands (third: conditional else)
  std::vector<ExprPtr> args;  // call arguments
};

struct SwitchCase {
  bool is_default = false;
  std::int64_t value = 0;
  int line = 0;
  std::vector<StmtPtr> body;
};

struct Stmt {
  enum class Kind {
    expr, decl, block, if_, while_, do_, for_, switch_, break_, continue_,
    goto_, label, return_, empty,
  };
  Kind kind = Stmt::Kind::empty;
  int line = 0;
  ExprPtr expr;            // expr stmt / condition / return value
  ExprPtr init_expr;       // for-init expression (or decl in `decl`)
  ExprPtr step_expr;       // for-step
  StmtPtr then_body, else_body, body;
  std::vector<StmtPtr> stmts; // block
  std::vector<SwitchCase> cases;
  std::string label_name;  // goto target / label name
  Symbol* decl_symbol = nullptr; // local declaration
};

struct Symbol {
  enum class Kind { global, local, param, function };
  Kind kind = Kind::local;
  std::string name;
  const Type* type = nullptr;
  int line = 0;
  bool address_taken = false;
  bool is_const = false;
  bool is_static = false;
  // Globals: flattened word initializers (after sema constant folding);
  // for char arrays the bytes are packed. Words holding link-time symbol
  // addresses (&var, function names) are listed in init_symbols.
  std::vector<std::uint8_t> init_bytes;
  std::vector<std::pair<int, std::string>> init_symbols; // word index -> name
  bool has_init = false;
  // Codegen slots (assigned by codegen): s-register index or frame offset.
  int reg = -1;         // callee-saved register number, -1 if memory-homed
  int frame_offset = 0; // fp-relative, for memory-homed locals/params
  int param_index = -1;
};

struct Function {
  std::string name;
  const Type* type = nullptr; // Kind::func
  std::vector<std::unique_ptr<Symbol>> params;
  std::vector<std::unique_ptr<Symbol>> locals; // all block-scope decls
  std::vector<StmtPtr> body;
  bool defined = false;
  bool is_varargs = false;
  int line = 0;
};

struct TranslationUnit {
  TypeTable types;
  std::vector<std::unique_ptr<Symbol>> globals;
  std::vector<std::unique_ptr<Function>> functions;

  Function* find_function(const std::string& name) const;
};

} // namespace wcet::mcc
