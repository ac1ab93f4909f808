// mcc front end: lexer, parser, sema diagnostics, and the MISRA-C:2004
// checker — one focused case per rule of Section 4.2, plus clean-code
// negatives.
#include <gtest/gtest.h>

#include "mcc/lexer.hpp"
#include "mcc/misra.hpp"
#include "mcc/parser.hpp"
#include "mcc/runtime.hpp"
#include "mcc/sema.hpp"
#include "support/diag.hpp"

namespace wcet::mcc {
namespace {

std::vector<MisraViolation> audit(const std::string& source) {
  // The driver's audit path: prelude + user source, but no main
  // required for an audit, so call the pieces directly.
  const std::string full = std::string(runtime_prelude()) + source;
  auto unit = parse(full);
  analyze(*unit);
  return check_misra(*unit);
}

bool has_rule(const std::vector<MisraViolation>& violations, const std::string& rule) {
  for (const auto& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(Lexer, TokensAndLiterals) {
  const auto tokens = lex("int x = 0x1F + 42; float f = 1.5f; char c = 'a';");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, Tok::kw_int);
  EXPECT_EQ(tokens[3].int_value, 0x1F);
  bool found_float = false;
  bool found_char = false;
  for (const auto& t : tokens) {
    if (t.kind == Tok::float_literal && t.float_value == 1.5) found_float = true;
    if (t.kind == Tok::int_literal && t.int_value == 'a') found_char = true;
  }
  EXPECT_TRUE(found_float);
  EXPECT_TRUE(found_char);
}

TEST(Lexer, CommentsAndOperators) {
  const auto tokens = lex("a /* block */ += b; // line\n c <<= 2; d != e;");
  std::vector<Tok> kinds;
  for (const auto& t : tokens) kinds.push_back(t.kind);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), Tok::plus_assign), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), Tok::shl_assign), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), Tok::bang_eq), kinds.end());
}

TEST(Parser, RejectsBrokenInput) {
  EXPECT_THROW(parse("int main(void) { return 1 }"), InputError);  // missing ;
  EXPECT_THROW(parse("int main(void) { x = 1; }"), InputError);    // undeclared
  EXPECT_THROW(parse("int f(void) { int a; int a; }"), InputError); // redefinition
  EXPECT_THROW(parse("int f(void) { return 0; } int f(void) { return 1; }"),
               InputError); // function redefinition
  EXPECT_THROW(parse("int a[0];"), InputError); // zero-length array
}

TEST(Parser, PrototypesAndDefinitions) {
  auto unit = parse("int f(int a, int b);\nint f(int a, int b) { return a + b; }");
  Function* f = unit->find_function("f");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->defined);
  EXPECT_EQ(f->params.size(), 2u);
}

TEST(Sema, TypesFlowThroughExpressions) {
  auto unit = parse(R"(
int g;
float h;
int main(void) {
  int x = 1;
  float y = 2.0f;
  g = x + 1;
  h = y * 3.0f;
  return g;
}
)");
  analyze(*unit);
  SUCCEED();
}

TEST(Sema, RejectsBadPrograms) {
  {
    auto unit = parse("int main(void) { int x; return *x; }");
    EXPECT_THROW(analyze(*unit), InputError); // deref non-pointer
  }
  {
    auto unit = parse("int main(void) { return 1 % 2.0f; }");
    EXPECT_THROW(analyze(*unit), InputError); // float modulo
  }
  {
    auto unit = parse("int f(int a); int main(void) { return f(1, 2); }");
    EXPECT_THROW(analyze(*unit), InputError); // arity
  }
}

// ------------------------------- MISRA ----------------------------------

TEST(Misra, Rule13_4_FloatForCondition) {
  const auto v = audit(R"(
int main(void) {
  float f;
  int n = 0;
  for (f = 0.0f; f < 10.0f; f = f + 1.0f) { n++; }
  return n;
}
)");
  EXPECT_TRUE(has_rule(v, "13.4"));
}

TEST(Misra, Rule13_6_CounterModifiedInBody) {
  const auto v = audit(R"(
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 10; i++) {
    s += i;
    if (s > 20) { i = i + 2; }
  }
  return s;
}
)");
  EXPECT_TRUE(has_rule(v, "13.6"));
}

TEST(Misra, Rule14_1_UnreachableCode) {
  const auto v = audit(R"(
int main(void) {
  return 1;
  return 2;
}
)");
  EXPECT_TRUE(has_rule(v, "14.1"));
}

TEST(Misra, Rule14_1_LabelledCodeIsReachable) {
  const auto v = audit(R"(
int main(void) {
  int x = 0;
  goto skip;
  x = 1;
skip:
  return x;
}
)");
  // goto itself violates 14.4; but x = 1 after goto IS unreachable here.
  EXPECT_TRUE(has_rule(v, "14.4"));
}

TEST(Misra, Rule14_4_Goto) {
  const auto v = audit("int main(void) { goto l; l: return 0; }");
  EXPECT_TRUE(has_rule(v, "14.4"));
}

TEST(Misra, Rule14_5_Continue) {
  const auto v = audit(R"(
int main(void) {
  int i; int s = 0;
  for (i = 0; i < 4; i++) { if (i == 2) continue; s += i; }
  return s;
}
)");
  EXPECT_TRUE(has_rule(v, "14.5"));
}

TEST(Misra, Rule16_1_Varargs) {
  const auto v = audit(R"(
int sum(int n, ...) { return n; }
int main(void) { return sum(0); }
)");
  EXPECT_TRUE(has_rule(v, "16.1"));
}

TEST(Misra, Rule16_2_DirectAndIndirectRecursion) {
  const auto direct = audit(R"(
int fac(int n) { if (n < 2) return 1; return n * fac(n - 1); }
int main(void) { return fac(4); }
)");
  EXPECT_TRUE(has_rule(direct, "16.2"));

  const auto indirect = audit(R"(
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main(void) { return even(4); }
)");
  EXPECT_TRUE(has_rule(indirect, "16.2"));
}

TEST(Misra, Rule20_4_Malloc) {
  const auto v = audit(R"(
int main(void) {
  int* p = (int*)malloc(8);
  p[0] = 1;
  return p[0];
}
)");
  EXPECT_TRUE(has_rule(v, "20.4"));
}

TEST(Misra, Rule20_7_Setjmp) {
  const auto v = audit(R"(
int env[16];
int main(void) {
  if (setjmp(env) != 0) { return 1; }
  longjmp(env, 1);
  return 0;
}
)");
  EXPECT_TRUE(has_rule(v, "20.7"));
}

TEST(Misra, CleanCodeHasNoViolations) {
  const auto v = audit(R"(
int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int sum_table(void) {
  int s = 0;
  int i;
  for (i = 0; i < 8; i++) { s += table[i]; }
  return s;
}
int main(void) { return sum_table(); }
)");
  EXPECT_TRUE(v.empty()) << format_misra_report(v);
}

TEST(Misra, ReportFormatting) {
  const auto v = audit("int main(void) { goto l; l: return 0; }");
  const std::string report = format_misra_report(v);
  EXPECT_NE(report.find("rule 14.4"), std::string::npos);
  EXPECT_NE(report.find("WCET impact"), std::string::npos);
  EXPECT_NE(report.find("irreducible"), std::string::npos);
}

TEST(Misra, ViolationsCarryImpactText) {
  const auto v = audit(R"(
int main(void) {
  int* p = (int*)malloc(4);
  return (int)p;
}
)");
  ASSERT_TRUE(has_rule(v, "20.4"));
  for (const auto& violation : v) {
    if (violation.rule == "20.4") {
      EXPECT_NE(violation.wcet_impact.find("cache"), std::string::npos);
    }
  }
}

} // namespace
} // namespace wcet::mcc
