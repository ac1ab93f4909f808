// Shared battery of generated call-tree shapes for the differential
// suites: the IPET decomposition tests (tests/test_ipet_decomposition)
// compare solver modes against each other on these shapes, and the
// validation-oracle tests (tests/test_path_oracle,
// tests/test_witness_replay) run the independent path-exploration
// oracle and witness replay against the same battery. Keeping one
// generator set means every new shape automatically lands in both
// nets.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

namespace wcet::testshapes {

// Common preamble: an io-backed input array the analyzer cannot
// constant-fold, so data-dependent branches stay two-way and flow facts
// on conditionally-called functions bind without making the ILP
// infeasible.
inline const char* k_input_preamble = R"(
int input[8] = {0, 0, 0, 0, 0, 0, 0, 0};
int data[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};
)";

inline std::string leaf_fn(const std::string& name, int loops, int iters) {
  std::ostringstream os;
  os << "int " << name << "(int x) {\n  int s = x;\n";
  for (int l = 0; l < loops; ++l) {
    os << "  { int i" << l << "; for (i" << l << " = 0; i" << l << " < " << iters
       << "; i" << l << "++) { s += data[(s + i" << l << ") & 15]; } }\n";
  }
  os << "  return s;\n}\n";
  return os.str();
}

// f0 -> f1 -> ... -> f{depth-1}, each level with its own loop work.
inline std::string deep_chain(int depth, int loops) {
  std::ostringstream os;
  os << k_input_preamble;
  os << leaf_fn("f" + std::to_string(depth - 1), loops, 5);
  for (int d = depth - 2; d >= 0; --d) {
    os << "int f" << d << "(int x) {\n  int s = x;\n";
    os << "  { int j; for (j = 0; j < 3; j++) { s += data[(s + j) & 15]; } }\n";
    os << "  s = f" << (d + 1) << "(s);\n  return s;\n}\n";
  }
  os << "int main(void) { return f0(input[0]); }\n";
  return os.str();
}

// main calls `width` independent leaves in sequence.
inline std::string wide_fan(int width, int loops) {
  std::ostringstream os;
  os << k_input_preamble;
  for (int w = 0; w < width; ++w) os << leaf_fn("work" + std::to_string(w), loops, 4 + w % 5);
  os << "int main(void) {\n  int total = input[0];\n";
  for (int w = 0; w < width; ++w) os << "  total += work" << w << "(total);\n";
  os << "  return total;\n}\n";
  return os.str();
}

// main calls `width` chains, each of depth `depth`.
inline std::string fan_of_chains(int width, int depth) {
  std::ostringstream os;
  os << k_input_preamble;
  for (int w = 0; w < width; ++w) {
    os << leaf_fn("c" + std::to_string(w) + "_" + std::to_string(depth - 1), 2, 5);
    for (int d = depth - 2; d >= 0; --d) {
      os << "int c" << w << "_" << d << "(int x) {\n";
      os << "  int s = x + " << w << ";\n";
      os << "  { int j; for (j = 0; j < 4; j++) { s += data[(s + j) & 15]; } }\n";
      os << "  return c" << w << "_" << (d + 1) << "(s);\n}\n";
    }
  }
  os << "int main(void) {\n  int total = input[0];\n";
  for (int w = 0; w < width; ++w) os << "  total += c" << w << "_0(total);\n";
  os << "  return total;\n}\n";
  return os.str();
}

// Balanced binary call tree of depth 3 rooted at main.
inline std::string balanced_tree() {
  std::ostringstream os;
  os << k_input_preamble;
  const char* leaves[] = {"aa", "ab", "ba", "bb"};
  for (const char* leaf : leaves) os << leaf_fn(leaf, 3, 6);
  os << "int a(int x) {\n  int s = aa(x);\n";
  os << "  { int j; for (j = 0; j < 4; j++) { s += data[(s + j) & 15]; } }\n";
  os << "  s += ab(s);\n  return s;\n}\n";
  os << "int b(int x) {\n  int s = ba(x);\n";
  os << "  { int j; for (j = 0; j < 5; j++) { s += data[(s + j) & 15]; } }\n";
  os << "  s += bb(s);\n  return s;\n}\n";
  os << "int main(void) { int v = a(input[0]); v += b(v); return v; }\n";
  return os.str();
}

// Calls inside loops: the called instances are ineligible for collapse
// (entry count > 1), while the surrounding plain calls still decompose.
inline std::string loop_nested_calls() {
  std::ostringstream os;
  os << k_input_preamble;
  os << leaf_fn("step", 1, 5);
  os << leaf_fn("plain0", 4, 5);
  os << leaf_fn("plain1", 4, 6);
  os << leaf_fn("plain2", 3, 4);
  os << "int looper(int x) {\n  int i;\n  int s = x;\n";
  os << "  for (i = 0; i < 6; i++) { s += step(s); }\n  return s;\n}\n";
  os << "int main(void) {\n  int v = plain0(input[0]);\n  v += looper(v);\n";
  os << "  v += plain1(v);\n  v += plain2(v);\n  return v;\n}\n";
  return os.str();
}

// A chain whose middle level calls a helper from inside a loop.
inline std::string chain_with_loop_call() {
  std::ostringstream os;
  os << k_input_preamble;
  os << leaf_fn("bottom", 4, 5);
  os << leaf_fn("side", 1, 3);
  os << leaf_fn("prelude", 3, 5);
  os << "int mid(int x) {\n  int i;\n  int s = x;\n";
  os << "  for (i = 0; i < 4; i++) { s += side(s); }\n";
  os << "  return bottom(s);\n}\n";
  os << "int top(int x) {\n";
  os << "  int s = prelude(x);\n";
  os << "  { int j; for (j = 0; j < 5; j++) { s += data[(s + j) & 15]; } }\n";
  os << "  return mid(s);\n}\n";
  os << "int main(void) { return top(input[0]); }\n";
  return os.str();
}

// A single large function, no calls at all: nothing to collapse, so
// the recursive mode must match the monolithic reference. Each outer
// if-arm leads with a nested if/else whose arms are loop nests, so the
// planner and the crash basis see many small diamonds.
inline std::string single_fn_diamonds(int diamonds) {
  std::ostringstream os;
  os << k_input_preamble;
  os << "int main(void) {\n  int v = input[0];\n";
  for (int d = 0; d < diamonds; ++d) {
    os << "  if (input[" << (d % 8) << "] > 10) {\n";
    os << "    v += " << d << ";\n";
    os << "    if (input[" << ((d + 1) % 8) << "] > 5) {\n";
    os << "      { int i; for (i = 0; i < " << (4 + d % 3) << "; i++) {"
       << " v += data[(v + i) & 15]; } }\n";
    os << "      { int j; for (j = 0; j < " << (5 + d % 2) << "; j++) {"
       << " v += data[(v + j) & 15]; } }\n";
    os << "    } else {\n";
    os << "      { int k; for (k = 0; k < " << (3 + d % 4) << "; k++) {"
       << " v += data[(v + k) & 15]; } }\n";
    os << "      { int l; for (l = 0; l < 4; l++) { v += data[(v + l) & 15]; } }\n";
    os << "    }\n";
    os << "    v += 2;\n";
    os << "  } else {\n    v -= " << d << ";\n  }\n";
  }
  os << "  return v;\n}\n";
  return os.str();
}

// One function dominated by sequential and nested loops: nothing to
// collapse, so the recursive mode must match the monolithic reference.
inline std::string single_fn_nested_loops() {
  std::ostringstream os;
  os << k_input_preamble;
  os << "int main(void) {\n  int v = input[0];\n";
  os << "  { int a; int b; int c;\n";
  os << "    for (a = 0; a < 4; a++) {\n";
  os << "      for (b = 0; b < 3; b++) {\n";
  os << "        for (c = 0; c < 5; c++) { v += data[(v + a + b + c) & 15]; }\n";
  os << "      }\n    }\n  }\n";
  for (int n = 0; n < 6; ++n) {
    os << "  { int o" << n << "; int p" << n << ";\n";
    os << "    for (o" << n << " = 0; o" << n << " < " << (3 + n % 3) << "; o" << n
       << "++) {\n";
    os << "      for (p" << n << " = 0; p" << n << " < " << (4 + n % 2) << "; p" << n
       << "++) { v += data[(v + o" << n << " + p" << n << ") & 15]; }\n";
    os << "    }\n  }\n";
  }
  os << "  return v;\n}\n";
  return os.str();
}

// A long if/else-if ladder with loop work in every arm: a deep chain
// of nested joins inside one function body.
inline std::string single_fn_if_ladder(int rungs) {
  std::ostringstream os;
  os << k_input_preamble;
  os << "int main(void) {\n  int v = input[0];\n";
  for (int r = 0; r < rungs; ++r) {
    os << (r == 0 ? "  if" : "  } else if") << " (input[" << (r % 8) << "] > " << (r * 3)
       << ") {\n";
    os << "    { int i" << r << "; for (i" << r << " = 0; i" << r << " < " << (4 + r % 4)
       << "; i" << r << "++) { v += data[(v + i" << r << ") & 15]; } }\n";
    os << "    { int j" << r << "; for (j" << r << " = 0; j" << r << " < " << (3 + r % 3)
       << "; j" << r << "++) { v += data[(v + j" << r << ") & 15]; } }\n";
  }
  os << "  } else {\n    v += 1;\n  }\n";
  os << "  return v;\n}\n";
  return os.str();
}

// goto weaves a second entry into the loop (the paper's rule 14.4
// scenario): the loop is irreducible, no automatic bound exists, and
// every mode must degrade to the same missing-loop-bound obstruction
// instead of crashing or diverging.
inline std::string single_fn_irreducible() {
  std::ostringstream os;
  os << k_input_preamble;
  os << "int main(void) {\n  int v = input[0];\n  int s = 0;\n";
  os << "  { int i; for (i = 0; i < 6; i++) { v += data[(v + i) & 15]; } }\n";
  os << "  if (v > 20) goto mid;\n";
  os << "head:\n  s += data[s & 15];\n";
  os << "mid:\n  s += 2;\n";
  os << "  if (s < 50) goto head;\n";
  os << "  { int j; for (j = 0; j < 5; j++) { v += data[(v + j) & 15]; } }\n";
  for (int n = 0; n < 5; ++n) {
    os << "  { int k" << n << "; for (k" << n << " = 0; k" << n << " < " << (4 + n)
       << "; k" << n << "++) { v += data[(v + k" << n << ") & 15]; } }\n";
  }
  os << "  return v + s;\n}\n";
  return os.str();
}

// The same callee reached from two different call sites: two instances,
// each its own candidate subtree.
inline std::string repeated_callee() {
  std::ostringstream os;
  os << k_input_preamble;
  os << leaf_fn("shared", 5, 6);
  os << leaf_fn("other", 4, 5);
  os << "int main(void) {\n  int v = shared(input[0]);\n  v += other(v);\n";
  os << "  v += shared(v);\n  return v;\n}\n";
  return os.str();
}

// Data-dependent branching between calls: both branch bodies stay
// feasible thanks to the io-backed input. The if/switch branches are
// deliberately asymmetric (h0 and h3 heavy, h1 and h4 light) so the
// WCET path runs through h0/h3 and facts constraining them bind.
inline std::string conditional_fan() {
  std::ostringstream os;
  os << k_input_preamble;
  os << leaf_fn("h0", 4, 8);
  os << leaf_fn("h1", 1, 3);
  os << leaf_fn("h2", 2, 5);
  os << leaf_fn("h3", 4, 7);
  os << leaf_fn("h4", 1, 3);
  os << leaf_fn("h5", 2, 5);
  os << "int main(void) {\n  int v = input[0];\n";
  os << "  if (input[1] > 10) { v += h0(v); } else { v += h1(v); }\n";
  os << "  v += h2(v);\n";
  os << "  switch (input[2] & 1) {\n";
  os << "  case 0: v += h3(v); break;\n";
  os << "  default: v += h4(v); break;\n  }\n";
  os << "  v += h5(v);\n  return v;\n}\n";
  return os.str();
}

// The benchmark's deep program with fixed parameters: a depth-5 call
// tree (main -> f1 -> f2 -> f3 -> f4, two calls per level) whose f4
// branches between a heavy `leaf` and a `lite` helper. A cap on `leaf`
// pins every subtree, so the whole tree is one fact-constrained ILP.
inline std::string deep_facts_tree() {
  std::ostringstream os;
  os << k_input_preamble;
  os << "int leaf(int x) {\n  int s = x;\n";
  os << "  { int a; for (a = 0; a < 6; a++) { s += data[(s + a) & 15]; } }\n";
  os << "  { int b; for (b = 0; b < 6; b++) { s += data[(s + b) & 15]; } }\n";
  os << "  return s;\n}\n";
  os << "int lite(int x) {\n  int s = x;\n";
  os << "  { int c; for (c = 0; c < 2; c++) { s += data[(s + c) & 15]; } }\n";
  os << "  return s;\n}\n";
  os << "int f4(int x) {\n  int s = x;\n";
  os << "  { int j; for (j = 0; j < 3; j++) { s += data[(s + j) & 15]; } }\n";
  os << "  if (input[s & 7] > 5) { s += leaf(s); } else { s += lite(s); }\n";
  os << "  return s;\n}\n";
  for (int level = 3; level >= 1; --level) {
    os << "int f" << level << "(int x) {\n  int s = x;\n";
    os << "  s += f" << level + 1 << "(s);\n  s += f" << level + 1 << "(s + 1);\n";
    os << "  return s;\n}\n";
  }
  os << "int main(void) {\n  int v = input[0];\n  v += f1(v);\n  v += f1(v + 2);\n"
     << "  return v;\n}\n";
  return os.str();
}

// `count` sequential counted loops in one function, each counter in a
// stack slot. Kept out of `shapes()`: its path count explodes, so the
// path oracle could not cover it. The loop-nest schedule's regression
// shape (tests/test_loop_bounds, tests/test_cache_rounds).
inline std::string sequential_loops(int count) {
  std::ostringstream os;
  os << "int main(void) {\n  int s = 0; int a = 1; int b = 2; int c = 3;\n";
  for (int k = 0; k < count; ++k) os << "  {int i; for (i = 0; i < 5; i++) { s += 1; }}\n";
  os << "  return s + a + b + c;\n}\n";
  return os.str();
}

// An outer loop of `outer` trips around `inner` sequential loops of
// `trips` trips each.
inline std::string nested_sequential_loops(int outer, int inner, int trips) {
  std::ostringstream os;
  os << "int main(void) {\n  int s = 0; int a = 1; int b = 2; int c = 3; int o;\n";
  os << "  for (o = 0; o < " << outer << "; o++) {\n";
  for (int k = 0; k < inner; ++k) {
    os << "    {int i; for (i = 0; i < " << trips << "; i++) { s += 1; }}\n";
  }
  os << "  }\n  return s + a + b + c;\n}\n";
  return os.str();
}

struct Shape {
  const char* name;
  std::string source;
  std::string annotations; // appended after the io-region line
  std::string mode;        // AnalysisOptions::mode
  bool expect_decomposition;
};

inline std::vector<Shape> shapes() {
  std::vector<Shape> all;
  all.push_back({"deep_chain_8", deep_chain(8, 2), "", "", true});
  all.push_back({"deep_chain_12", deep_chain(12, 3), "", "", true});
  all.push_back({"wide_fan_16", wide_fan(16, 3), "", "", true});
  all.push_back({"fan_of_chains", fan_of_chains(4, 3), "", "", true});
  all.push_back({"balanced_tree", balanced_tree(), "", "", true});
  all.push_back({"loop_nested_calls", loop_nested_calls(), "", "", true});
  all.push_back({"chain_with_loop_call", chain_with_loop_call(), "", "", true});
  all.push_back({"repeated_callee", repeated_callee(), "", "", true});
  all.push_back({"conditional_fan", conditional_fan(), "", "", true});
  // Annotation-coupled shapes: the facts pin the subtrees they touch,
  // everything else must still decompose.
  all.push_back({"coupled_flow_cap", conditional_fan(),
                 "flow at \"h0\" <= 0\nflow at \"h3\" <= 4\n", "", true});
  all.push_back({"coupled_ratio", conditional_fan(),
                 "flow at \"h3\" <= 1 * at \"h4\"\n", "", true});
  all.push_back({"coupled_infeasible_pair", conditional_fan(),
                 "infeasible at \"h0\" with \"h3\"\n", "", true});
  // `never` on a conditionally-called helper: the exclusion pins only
  // that helper's subtree; the unconditional helpers still decompose.
  all.push_back({"coupled_never", conditional_fan(), "never at \"h3\"\n", "", true});
  all.push_back({"coupled_cap_on_chain", deep_chain(8, 2),
                 "flow at \"f6\" <= 1\n", "", true});
  // The cap on `leaf` reaches every f4 instance, so nothing decomposes.
  all.push_back({"coupled_cap_on_deep_tree", deep_facts_tree(),
                 "flow at \"leaf\" <= 20\n", "", false});
  // Single-function shapes: no call subtree to collapse, so the
  // recursive mode must fall back to the monolithic reference cleanly.
  all.push_back({"single_fn_diamonds", single_fn_diamonds(5), "", "", false});
  all.push_back({"single_fn_if_ladder", single_fn_if_ladder(8), "", "", false});
  all.push_back({"single_fn_nested_loops", single_fn_nested_loops(), "", "", false});
  return all;
}

// Compile a shape, graft the io-backed input region onto its
// annotations, and run the analyzer with the given options (threads /
// decomposition come pre-set on `options`; mode is taken from the
// shape).
inline WcetReport analyze_shape(const Shape& shape, AnalysisOptions options) {
  const auto built = mcc::compile_program(shape.source);
  const isa::Symbol* input = built.image.find_symbol("input");
  EXPECT_NE(input, nullptr);
  std::ostringstream annotations;
  annotations << "region \"inputs\" at " << input->addr << " size 32 read 2 write 2 io\n";
  annotations << shape.annotations;
  const Analyzer analyzer(built.image, mem::typical_hw(), annotations.str());
  options.mode = shape.mode;
  return analyzer.analyze(options);
}

inline WcetReport analyze_shape(const Shape& shape, int threads,
                                analysis::IpetDecomposition decomposition) {
  AnalysisOptions options;
  options.threads = threads;
  options.decomposition = decomposition;
  return analyze_shape(shape, options);
}

inline void expect_identical_reports(const WcetReport& a, const WcetReport& b,
                                     const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.wcet_cycles, b.wcet_cycles) << what;
  EXPECT_EQ(a.bcet_cycles, b.bcet_cycles) << what;
  EXPECT_EQ(a.obstructions, b.obstructions) << what;
  EXPECT_EQ(a.wcet_block_counts, b.wcet_block_counts) << what;
  EXPECT_EQ(a.ilp_variables, b.ilp_variables) << what;
  EXPECT_EQ(a.ilp_constraints, b.ilp_constraints) << what;
  EXPECT_EQ(a.ipet_regions, b.ipet_regions) << what;
  EXPECT_EQ(a.ipet_sub_ilps, b.ipet_sub_ilps) << what;
  EXPECT_EQ(a.ipet_depth, b.ipet_depth) << what;
  // Solver telemetry is part of the determinism contract too: the same
  // plan must run the same pivots regardless of worker count.
  EXPECT_EQ(a.phase1_pivots, b.phase1_pivots) << what;
  EXPECT_EQ(a.phase2_pivots, b.phase2_pivots) << what;
  EXPECT_EQ(a.crash_basis_rows, b.crash_basis_rows) << what;
}

} // namespace wcet::testshapes
