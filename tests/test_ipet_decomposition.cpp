// Differential path-analysis suite for the recursive IPET
// decomposition: for a battery of generated call-tree shapes (deep
// chains, wide fans, loop-nested and annotation-coupled calls), the
// recursive-decomposed and monolithic ILP solves must agree
// bit-identically on every computed bound, and each mode must be
// bit-identical with itself across worker counts 1/2/4/8.
//
// The bounds are exact rational optima of the same polytope, so "agree"
// here is equality, not tolerance — any eligibility bug (a subtree
// collapsed while a flow fact couples it to the rest of the system, a
// call-in-loop subtree collapsed, a nested sub-ILP merged at the wrong
// entry count) shows up as a diverged WCET or BCET.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"
#include "tests/differential_shapes.hpp"

namespace wcet {
namespace {

using testshapes::Shape;
using testshapes::analyze_shape;
using testshapes::conditional_fan;
using testshapes::deep_chain;
using testshapes::expect_identical_reports;
using testshapes::shapes;
using testshapes::single_fn_irreducible;

TEST(IpetDecompositionDifferential, AllModesAgreeOnEveryShape) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const WcetReport monolithic =
        analyze_shape(shape, 1, analysis::IpetDecomposition::monolithic);
    const WcetReport recursive =
        analyze_shape(shape, 1, analysis::IpetDecomposition::recursive);
    ASSERT_TRUE(monolithic.ok) << shape.name << "\n" << monolithic.to_string();
    ASSERT_TRUE(recursive.ok) << shape.name << "\n" << recursive.to_string();

    EXPECT_EQ(recursive.wcet_cycles, monolithic.wcet_cycles) << shape.name;
    EXPECT_EQ(recursive.bcet_cycles, monolithic.bcet_cycles) << shape.name;
    EXPECT_EQ(recursive.obstructions, monolithic.obstructions) << shape.name;

    EXPECT_EQ(monolithic.ipet_regions, 0) << shape.name;
    EXPECT_EQ(monolithic.ipet_sub_ilps, 0) << shape.name;
    if (shape.expect_decomposition) {
      EXPECT_GT(recursive.ipet_regions, 0)
          << shape.name << ": decomposition did not trigger";
    }
  }
}

TEST(IpetDecompositionDifferential, DeepChainsActuallyNest) {
  // The whole point of recursive planning: a deep chain must produce
  // nested sub-ILPs (depth > 1) with the monolithic reference's bounds.
  for (const int depth : {8, 12}) {
    SCOPED_TRACE(depth);
    Shape shape{"chain", deep_chain(depth, 3), "", "", true};
    const WcetReport monolithic =
        analyze_shape(shape, 1, analysis::IpetDecomposition::monolithic);
    const WcetReport recursive =
        analyze_shape(shape, 1, analysis::IpetDecomposition::recursive);
    ASSERT_TRUE(monolithic.ok);
    ASSERT_TRUE(recursive.ok);
    EXPECT_GT(recursive.ipet_depth, 1) << "recursive planning did not re-enter";
    EXPECT_EQ(recursive.wcet_cycles, monolithic.wcet_cycles);
    EXPECT_EQ(recursive.bcet_cycles, monolithic.bcet_cycles);
  }
}

TEST(IpetDecompositionDifferential, FlowFactsOnlyPinTouchedSubtrees) {
  // A cap on one conditionally-called helper must not disable
  // decomposition of untouched subtrees — and the capped bound must
  // drop below the uncapped one (the cap actually binds) identically in
  // every mode.
  Shape uncapped{"fan", conditional_fan(), "", "", true};
  Shape capped{"fan_capped", conditional_fan(), "flow at \"h0\" <= 0\n", "", true};
  const WcetReport plain = analyze_shape(uncapped, 1, analysis::IpetDecomposition::recursive);
  const WcetReport with_cap =
      analyze_shape(capped, 1, analysis::IpetDecomposition::recursive);
  const WcetReport with_cap_mono =
      analyze_shape(capped, 1, analysis::IpetDecomposition::monolithic);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(with_cap.ok);
  ASSERT_TRUE(with_cap_mono.ok);
  EXPECT_EQ(with_cap.wcet_cycles, with_cap_mono.wcet_cycles);
  EXPECT_LT(with_cap.wcet_cycles, plain.wcet_cycles)
      << "cap did not bind: h0 must be off the WCET path";
  EXPECT_GT(with_cap.ipet_regions, 0)
      << "a single flow cap must not disable decomposition wholesale";
  EXPECT_LT(with_cap.ipet_regions, plain.ipet_regions)
      << "the capped subtree must be pinned out of the plan";
}

TEST(IpetDecompositionDifferential, CrashBasisCoversFactRegions) {
  // Every region gets the network-flow crash basis, fact-pinned top
  // levels included: the facts of these shapes hold on the crash path,
  // so no row needs an artificial and every solve starts phase 2
  // immediately — in every mode.
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    for (const auto mode :
         {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
      const WcetReport report = analyze_shape(shape, 1, mode);
      ASSERT_TRUE(report.ok) << report.to_string();
      EXPECT_EQ(report.phase1_pivots, 0u)
          << "mode " << static_cast<int>(mode) << ": " << report.to_string();
      EXPECT_GT(report.crash_basis_rows, 0u) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(IpetDecompositionDifferential, CrashBasisKeepsFactsOnTheEntry) {
  // A ratio fact whose left side covers the task entry carries the
  // entry's unit of flow as a constant, so its row has a negative rhs
  // and is stored as a `>=` row. The crash path satisfies it (h2 runs
  // once), so the crash basis must absorb the row on its surplus — no
  // phase 1, and the same bounds as the fact-free solve.
  const Shape plain{"fan", conditional_fan(), "", "", true};
  const Shape entry_ratio{"fan_entry_ratio", conditional_fan(),
                          "flow at \"_start\" <= 1 * at \"h2\"\n", "", true};
  const WcetReport reference =
      analyze_shape(plain, 1, analysis::IpetDecomposition::monolithic);
  ASSERT_TRUE(reference.ok);
  for (const auto mode :
       {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
    const WcetReport report = analyze_shape(entry_ratio, 1, mode);
    ASSERT_TRUE(report.ok) << report.to_string();
    EXPECT_EQ(report.wcet_cycles, reference.wcet_cycles);
    EXPECT_EQ(report.bcet_cycles, reference.bcet_cycles);
    EXPECT_EQ(report.phase1_pivots, 0u) << "mode " << static_cast<int>(mode);
    EXPECT_GT(report.crash_basis_rows, 0u) << "mode " << static_cast<int>(mode);
  }
}

TEST(IpetDecompositionDifferential, DeepTreePivotCountPinned) {
  // The benchmarked fact-pinned shape solves one large ILP whose every
  // pivot decision is pinned by its phase-2 pivot count: a scan-order or
  // tie-rule change inside the simplex that picks a different entering
  // column or leaving row shows up here, even where the bound survives.
  const std::vector<Shape> all = shapes();
  const auto deep = std::find_if(all.begin(), all.end(), [](const Shape& s) {
    return std::string(s.name) == "coupled_cap_on_deep_tree";
  });
  ASSERT_NE(deep, all.end());
  const std::pair<analysis::IpetDecomposition, std::uint64_t> pinned[] = {
      {analysis::IpetDecomposition::monolithic, 674},
      {analysis::IpetDecomposition::recursive, 674},
  };
  for (const auto& [mode, phase2_pivots] : pinned) {
    const WcetReport report = analyze_shape(*deep, 1, mode);
    ASSERT_TRUE(report.ok) << report.to_string();
    EXPECT_EQ(report.phase2_pivots, phase2_pivots) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(report.phase1_pivots, 0u) << "mode " << static_cast<int>(mode);
  }
}

TEST(IpetDecompositionDifferential, IrreducibleRegionDegradesIdentically) {
  // goto-induced irreducible loop: no automatic bound exists, so every
  // mode must report the same missing-loop-bound obstruction — the
  // planner and crash-basis construction must not crash or diverge on
  // the unstructured flow.
  const Shape shape{"irreducible", single_fn_irreducible(), "", "", false};
  const WcetReport monolithic =
      analyze_shape(shape, 1, analysis::IpetDecomposition::monolithic);
  const WcetReport recursive =
      analyze_shape(shape, 1, analysis::IpetDecomposition::recursive);
  EXPECT_FALSE(monolithic.ok);
  EXPECT_FALSE(monolithic.obstructions.empty());
  EXPECT_EQ(recursive.ok, monolithic.ok);
  EXPECT_EQ(recursive.obstructions, monolithic.obstructions);
  EXPECT_EQ(recursive.wcet_cycles, monolithic.wcet_cycles);
  EXPECT_GT(monolithic.irreducible_loops, 0);
}

TEST(IpetDecompositionDifferential, BitIdenticalAcrossThreadCounts) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    for (const auto mode :
         {analysis::IpetDecomposition::monolithic, analysis::IpetDecomposition::recursive}) {
      const WcetReport sequential = analyze_shape(shape, 1, mode);
      for (const int threads : {2, 4, 8}) {
        std::ostringstream what;
        what << shape.name << " mode " << static_cast<int>(mode) << " threads " << threads;
        expect_identical_reports(sequential, analyze_shape(shape, threads, mode),
                                 what.str());
      }
    }
  }
}

} // namespace
} // namespace wcet
