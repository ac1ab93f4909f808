// Exact rational arithmetic and the simplex/branch&bound ILP solver that
// path analysis relies on.
#include <gtest/gtest.h>

#include "support/diag.hpp"
#include "support/ilp.hpp"
#include "support/rational.hpp"
#include "support/rng.hpp"

namespace wcet {
namespace {

// Two int64_t: a sparse tableau entry (column + value) stays 24 bytes.
static_assert(sizeof(Rational) == 16);

TEST(Rational, BasicArithmetic) {
  const Rational half(1, 2);
  const Rational third(1, 3);
  EXPECT_EQ((half + third).to_string(), "5/6");
  EXPECT_EQ((half - third).to_string(), "1/6");
  EXPECT_EQ((half * third).to_string(), "1/6");
  EXPECT_EQ((half / third).to_string(), "3/2");
  EXPECT_EQ((-half).to_string(), "-1/2");
}

TEST(Rational, NormalizationAndCompare) {
  EXPECT_EQ(Rational(4, 8), Rational(1, 2));
  EXPECT_EQ(Rational(-3, -9), Rational(1, 3));
  EXPECT_EQ(Rational(3, -9).to_string(), "-1/3");
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor64(), 3);
  EXPECT_EQ(Rational(7, 2).ceil64(), 4);
  EXPECT_EQ(Rational(-7, 2).floor64(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil64(), -3);
  EXPECT_EQ(Rational(6, 2).floor64(), 3);
  EXPECT_EQ(Rational(6, 2).ceil64(), 3);
  EXPECT_TRUE(Rational(6, 2).is_integer());
  EXPECT_FALSE(Rational(7, 2).is_integer());
}

TEST(Rational, RandomFieldAxioms) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Rational a(rng.range(-1000, 1000), rng.range(1, 50));
    const Rational b(rng.range(-1000, 1000), rng.range(1, 50));
    const Rational c(rng.range(-1000, 1000), rng.range(1, 50));
    ASSERT_EQ(a + b, b + a);
    ASSERT_EQ((a + b) + c, a + (b + c));
    ASSERT_EQ(a * (b + c), a * b + a * c);
    if (!b.is_zero()) ASSERT_EQ((a / b) * b, a);
  }
}

// The 2^62 magnitude guard: every operation whose exact result leaves
// the guard band throws this AnalysisError instead of wrapping.
template <typename Fn>
void expect_overflow(Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected the rational overflow error";
  } catch (const AnalysisError& e) {
    EXPECT_STREQ(e.what(), "rational arithmetic overflow in path analysis");
  }
}

TEST(Rational, ConstructionRejectsOutOfBandValues) {
  expect_overflow([] { return Rational(INT64_MIN, -1); });
  expect_overflow([] { return Rational(1, INT64_MIN); });
  expect_overflow([] { return Rational(INT64_MIN, 2); }); // -2^62: on the guard
  // Normalization runs wider than the stored fields: both negations
  // below are exact, and the pair reduces to 1.
  EXPECT_EQ(Rational(INT64_MIN, INT64_MIN), Rational(1));
  EXPECT_EQ(Rational((std::int64_t{1} << 62) - 1, -1).to_string(), "-4611686018427387903");
}

TEST(Rational, ArithmeticCrossingTheGuardThrows) {
  const std::int64_t top = (std::int64_t{1} << 62) - 1; // largest in-band magnitude
  EXPECT_EQ(Rational(top - 1) + Rational(1), Rational(top));
  expect_overflow([&] { return Rational(top) + Rational(1); });
  expect_overflow([&] { return Rational(-top) - Rational(1); });
  expect_overflow([] { return Rational(std::int64_t{1} << 31) * Rational(std::int64_t{1} << 31); });
  EXPECT_EQ(Rational(std::int64_t{1} << 31) * Rational(std::int64_t{1} << 30),
            Rational(std::int64_t{1} << 61));
  expect_overflow([] {
    Rational r(0);
    r.sub_mul(Rational(std::int64_t{1} << 31), Rational(std::int64_t{1} << 31));
    return r;
  });
  expect_overflow([&] {
    Rational r(-top);
    r.sub_mul(Rational(1), Rational(1));
    return r;
  });
  // The non-integer paths carry the same guard.
  expect_overflow([&] { return Rational(1, 3) + Rational(top); });
  expect_overflow([&] { return Rational(top, 3) * Rational(top, 5); });
  expect_overflow([&] {
    Rational r(1, 3);
    r.sub_mul(Rational(top, 7), Rational(11, 2));
    return r;
  });
}

TEST(Rational, CompareWithCrossProductsBeyond64Bits) {
  const std::int64_t big = std::int64_t{1} << 61;
  // (2^61+1)/2^61 - (2^61+3)/(2^61+2) = 2 / (2^61 * (2^61+2)) > 0; each
  // cross product is about 2^122.
  const Rational a(big + 1, big);
  const Rational b(big + 3, big + 2);
  EXPECT_LT(b, a);
  EXPECT_LE(b, a);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(a <= b);
  EXPECT_LT(-a, -b);
  EXPECT_LE(-a, -b);
  EXPECT_FALSE(-b < -a);
  EXPECT_LE(a, a);
  EXPECT_FALSE(a < a);
}

TEST(Rational, FromInt128ReducesWidePairs) {
  const __int128 wide = static_cast<__int128>(1) << 70;
  EXPECT_EQ(Rational::from_int128(3 * wide, 2 * wide), Rational(3, 2));
  EXPECT_EQ(Rational::from_int128(-5 * wide, 15 * wide).to_string(), "-1/3");
  EXPECT_EQ(Rational::from_int128(7 * wide, -wide), Rational(-7));
  expect_overflow([&] { return Rational::from_int128(wide + 1, 3); });
}

// ------------------------------------------------------------------- LP

TEST(Ilp, SimpleMaximize) {
  IlpProblem p;
  const int x = p.add_variable();
  const int y = p.add_variable();
  p.set_objective(x, 3);
  p.set_objective(y, 5);
  p.add_constraint({{x, Rational(1)}}, Cmp::le, 4);
  p.add_constraint({{y, Rational(2)}}, Cmp::le, 12);
  p.add_constraint({{x, Rational(3)}, {y, Rational(2)}}, Cmp::le, 18);
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(36)); // classic textbook optimum
  EXPECT_EQ(s.values[static_cast<std::size_t>(x)], Rational(2));
  EXPECT_EQ(s.values[static_cast<std::size_t>(y)], Rational(6));
}

TEST(Ilp, EqualityAndGe) {
  IlpProblem p;
  const int x = p.add_variable();
  const int y = p.add_variable();
  p.set_objective(x, 1);
  p.add_constraint({{x, Rational(1)}, {y, Rational(1)}}, Cmp::eq, 10);
  p.add_constraint({{y, Rational(1)}}, Cmp::ge, 4);
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(6));
}

TEST(Ilp, InfeasibleDetected) {
  IlpProblem p;
  const int x = p.add_variable();
  p.set_objective(x, 1);
  p.add_constraint({{x, Rational(1)}}, Cmp::le, 1);
  p.add_constraint({{x, Rational(1)}}, Cmp::ge, 2);
  EXPECT_EQ(p.solve_lp().status, LpSolution::Status::infeasible);
}

TEST(Ilp, UnboundedDetected) {
  IlpProblem p;
  const int x = p.add_variable();
  p.set_objective(x, 1);
  p.add_constraint({{x, Rational(1)}}, Cmp::ge, 0);
  EXPECT_EQ(p.solve_lp().status, LpSolution::Status::unbounded);
}

TEST(Ilp, ArtificialsCannotReenter) {
  // Regression: flow-conservation-style equality systems once made an
  // artificial variable re-enter in phase 2 and reported "unbounded".
  IlpProblem p;
  const int n0 = p.add_variable();
  const int e0 = p.add_variable();
  const int n1 = p.add_variable();
  const int sink = p.add_variable();
  p.set_objective(n0, 5);
  p.set_objective(n1, 7);
  p.add_constraint({{n0, Rational(-1)}}, Cmp::eq, -1); // n0 == 1 (entry)
  p.add_constraint({{n0, Rational(-1)}, {e0, Rational(1)}}, Cmp::eq, 0);
  p.add_constraint({{n1, Rational(-1)}, {e0, Rational(1)}}, Cmp::eq, 0);
  p.add_constraint({{n1, Rational(-1)}, {sink, Rational(1)}}, Cmp::eq, 0);
  p.add_constraint({{sink, Rational(1)}}, Cmp::eq, 1);
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(12));
}

TEST(Ilp, BranchAndBoundIntegrality) {
  // max 3x + 2y s.t. 2x + y <= 4.5: LP optimum fractional, ILP must give
  // the best integer point (x=0, y=4 -> 8).
  IlpProblem p;
  const int x = p.add_variable();
  const int y = p.add_variable();
  p.set_objective(x, 3);
  p.set_objective(y, 2);
  p.add_constraint({{x, Rational(2)}, {y, Rational(1)}}, Cmp::le, Rational(9, 2));
  const LpSolution s = p.solve_ilp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(8));
  for (const Rational& v : s.values) EXPECT_TRUE(v.is_integer());
}

TEST(Ilp, KnapsackAgainstBruteForce) {
  // Random small knapsacks: ILP must match exhaustive search.
  Rng rng(99);
  for (int instance = 0; instance < 25; ++instance) {
    const int n = 5;
    std::vector<std::int64_t> weight(n), value(n);
    const std::int64_t capacity = 10 + static_cast<std::int64_t>(rng.below(20));
    for (int i = 0; i < n; ++i) {
      weight[static_cast<std::size_t>(i)] = 1 + rng.below(8);
      value[static_cast<std::size_t>(i)] = 1 + rng.below(12);
    }
    IlpProblem p;
    std::vector<LinTerm> cap_terms;
    for (int i = 0; i < n; ++i) {
      const int v = p.add_variable();
      p.set_objective(v, value[static_cast<std::size_t>(i)]);
      p.add_constraint({{v, Rational(1)}}, Cmp::le, 1); // 0/1 knapsack
      cap_terms.push_back({v, Rational(weight[static_cast<std::size_t>(i)])});
    }
    p.add_constraint(std::move(cap_terms), Cmp::le, Rational(capacity));
    const LpSolution s = p.solve_ilp();
    ASSERT_TRUE(s.ok());

    std::int64_t best = 0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      std::int64_t w = 0;
      std::int64_t v = 0;
      for (int i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          w += weight[static_cast<std::size_t>(i)];
          v += value[static_cast<std::size_t>(i)];
        }
      }
      if (w <= capacity) best = std::max(best, v);
    }
    EXPECT_EQ(s.objective, Rational(best)) << "knapsack instance " << instance;
  }
}

TEST(Ilp, MinimizeViaNegation) {
  // BCET-style: minimize by maximizing the negated objective.
  IlpProblem p;
  const int x = p.add_variable();
  p.set_objective(x, -1);
  p.add_constraint({{x, Rational(1)}}, Cmp::ge, 3);
  p.add_constraint({{x, Rational(1)}}, Cmp::le, 9);
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(-s.objective, Rational(3));
}

TEST(Ilp, DegeneratePivotsTerminate) {
  // Beale's classic cycling example: Dantzig's rule alone can cycle on
  // this LP; the degenerate-streak fallback to Bland must terminate it
  // at the true optimum 1/20 (x3 = 1).
  IlpProblem p;
  const int x1 = p.add_variable();
  const int x2 = p.add_variable();
  const int x3 = p.add_variable();
  const int x4 = p.add_variable();
  p.set_objective(x1, Rational(3, 4));
  p.set_objective(x2, Rational(-150));
  p.set_objective(x3, Rational(1, 50));
  p.set_objective(x4, Rational(-6));
  p.add_constraint({{x1, Rational(1, 4)}, {x2, Rational(-60)}, {x3, Rational(-1, 25)},
                    {x4, Rational(9)}},
                   Cmp::le, Rational(0));
  p.add_constraint({{x1, Rational(1, 2)}, {x2, Rational(-90)}, {x3, Rational(-1, 50)},
                    {x4, Rational(3)}},
                   Cmp::le, Rational(0));
  p.add_constraint({{x3, Rational(1)}}, Cmp::le, Rational(1));
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(1, 20));
  EXPECT_EQ(s.values[static_cast<std::size_t>(x3)], Rational(1));
  // 128 degenerate Dantzig pivots, then Bland's lowest-index rule: the
  // count pins which column each Bland step picks.
  EXPECT_EQ(s.pivots_used, 132u);
}

TEST(Ilp, DantzigTiesGoToTheLowestColumn) {
  // Columns 1 and 2 tie on the largest reduced cost. Dantzig's rule
  // takes the lower one, which the optimal vertex records: x1 fills its
  // own bound first and x2 gets the rest of the shared row.
  IlpProblem p;
  const int x0 = p.add_variable();
  const int x1 = p.add_variable();
  const int x2 = p.add_variable();
  p.set_objective(x0, 1);
  p.set_objective(x1, 2);
  p.set_objective(x2, 2);
  p.add_constraint({{x1, Rational(1)}, {x2, Rational(1)}}, Cmp::le, 4);
  p.add_constraint({{x1, Rational(1)}}, Cmp::le, 3);
  p.add_constraint({{x2, Rational(1)}}, Cmp::le, 3);
  p.add_constraint({{x0, Rational(1)}}, Cmp::le, 1);
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(9));
  EXPECT_EQ(s.values, (std::vector<Rational>{1, 3, 1}));
  EXPECT_EQ(s.pivots_used, 3u);
}

TEST(Ilp, EmptyRowsHandled) {
  // Rows with no terms must not confuse the sparse tableau: a vacuously
  // true row is carried by its slack/artificial alone, a vacuously
  // false one makes the system infeasible.
  {
    IlpProblem p;
    const int x = p.add_variable();
    p.set_objective(x, 1);
    p.add_constraint({}, Cmp::le, Rational(5));   // 0 <= 5: no-op
    p.add_constraint({}, Cmp::ge, Rational(-3));  // 0 >= -3: no-op after flip
    p.add_constraint({}, Cmp::eq, Rational(0));   // 0 == 0: redundant row
    p.add_constraint({{x, Rational(1)}}, Cmp::le, Rational(7));
    const LpSolution s = p.solve_lp();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.objective, Rational(7));
  }
  {
    IlpProblem p;
    const int x = p.add_variable();
    p.set_objective(x, 1);
    p.add_constraint({}, Cmp::eq, Rational(1)); // 0 == 1: impossible
    p.add_constraint({{x, Rational(1)}}, Cmp::le, Rational(7));
    EXPECT_EQ(p.solve_lp().status, LpSolution::Status::infeasible);
  }
  {
    // A row whose terms cancel exactly is an empty row in disguise.
    IlpProblem p;
    const int x = p.add_variable();
    p.set_objective(x, 1);
    p.add_constraint({{x, Rational(1)}, {x, Rational(-1)}}, Cmp::ge, Rational(2));
    EXPECT_EQ(p.solve_lp().status, LpSolution::Status::infeasible);
  }
}

TEST(Ilp, DualSimplexWarmStartsMatchExhaustive) {
  // Integer programs whose LP relaxations are fractional force branch &
  // bound to extend the sparse tableau with branch rows and re-optimize
  // via the dual simplex (warm starts). Every optimum must match brute
  // force over the integer box.
  Rng rng(1234);
  for (int instance = 0; instance < 20; ++instance) {
    const int n = 4;
    IlpProblem p;
    std::vector<std::int64_t> coeff(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const int v = p.add_variable();
      coeff[static_cast<std::size_t>(j)] = 1 + rng.below(9);
      p.set_objective(v, Rational(coeff[static_cast<std::size_t>(j)]));
      p.add_constraint({{v, Rational(1)}}, Cmp::le, Rational(4)); // box
    }
    std::vector<std::vector<std::int64_t>> rows;
    const int num_rows = 2 + static_cast<int>(rng.below(2));
    for (int r = 0; r < num_rows; ++r) {
      std::vector<LinTerm> terms;
      std::vector<std::int64_t> row;
      for (int j = 0; j < n; ++j) {
        const std::int64_t a = 1 + rng.below(6);
        row.push_back(a);
        // Fractional denominators make the relaxation land off-integer.
        terms.push_back({j, Rational(2 * a, 3)});
      }
      const std::int64_t rhs = 5 + rng.below(12);
      rows.push_back(row);
      rows.back().push_back(rhs);
      p.add_constraint(std::move(terms), Cmp::le, Rational(rhs));
    }
    const LpSolution s = p.solve_ilp();
    ASSERT_TRUE(s.ok()) << "instance " << instance;
    for (const Rational& v : s.values) EXPECT_TRUE(v.is_integer());

    std::int64_t best = -1;
    std::vector<int> x(static_cast<std::size_t>(n), 0);
    for (x[0] = 0; x[0] <= 4; ++x[0]) {
      for (x[1] = 0; x[1] <= 4; ++x[1]) {
        for (x[2] = 0; x[2] <= 4; ++x[2]) {
          for (x[3] = 0; x[3] <= 4; ++x[3]) {
            bool feasible = true;
            for (const auto& row : rows) {
              std::int64_t lhs3 = 0; // 3 * lhs to stay integral
              for (int j = 0; j < n; ++j) {
                lhs3 += 2 * row[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
              }
              if (lhs3 > 3 * row.back()) {
                feasible = false;
                break;
              }
            }
            if (!feasible) continue;
            std::int64_t value = 0;
            for (int j = 0; j < n; ++j) {
              value += coeff[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)];
            }
            best = std::max(best, value);
          }
        }
      }
    }
    EXPECT_EQ(s.objective, Rational(best)) << "instance " << instance;
  }
}

TEST(Ilp, SharedPhase1PairMatchesIndependentSolves) {
  // solve_ilp_pair shares construction and phase 1 between two
  // objective senses; both optima must equal their independent solves.
  Rng rng(77);
  for (int instance = 0; instance < 10; ++instance) {
    IlpProblem p;
    std::vector<Rational> alt;
    const int n = 5;
    for (int j = 0; j < n; ++j) {
      const int v = p.add_variable();
      p.set_objective(v, Rational(1 + rng.below(10)));
      alt.emplace_back(-static_cast<std::int64_t>(1 + rng.below(10)));
      p.add_constraint({{v, Rational(1)}}, Cmp::le, Rational(3));
    }
    // Equality coupling rows force a phase-1 pass.
    std::vector<LinTerm> sum;
    for (int j = 0; j < n; ++j) sum.push_back({j, Rational(1)});
    p.add_constraint(std::move(sum), Cmp::eq, Rational(7));
    const auto [primary, alternate] = p.solve_ilp_pair(alt);
    const LpSolution primary_cold = p.solve_ilp();
    IlpProblem q = p;
    for (int j = 0; j < n; ++j) q.set_objective(j, alt[static_cast<std::size_t>(j)]);
    const LpSolution alternate_cold = q.solve_ilp();
    ASSERT_TRUE(primary.ok());
    ASSERT_TRUE(alternate.ok());
    EXPECT_EQ(primary.objective, primary_cold.objective) << "instance " << instance;
    EXPECT_EQ(alternate.objective, alternate_cold.objective) << "instance " << instance;
  }
}

TEST(Ilp, SparseTableauMemoryShape) {
  // A flow-conservation-style chain: each row touches a constant number
  // of variables, so the sparse tableau's nonzero count must stay a
  // small multiple of the row count while rows * cols grows
  // quadratically. A dense-storage regression multiplies solver memory
  // by the column count and fails this shape bound loudly.
  const int n = 60;
  IlpProblem p;
  std::vector<int> node(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) node[static_cast<std::size_t>(i)] = p.add_variable();
  p.set_objective(node[static_cast<std::size_t>(n - 1)], 1);
  p.add_constraint({{node[0], Rational(1)}}, Cmp::eq, Rational(1));
  for (int i = 1; i < n; ++i) {
    p.add_constraint({{node[static_cast<std::size_t>(i)], Rational(1)},
                      {node[static_cast<std::size_t>(i - 1)], Rational(-1)}},
                     Cmp::eq, Rational(0));
  }
  const LpSolution s = p.solve_lp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(1));
  ASSERT_GT(s.tableau_rows, 0u);
  ASSERT_GT(s.tableau_cols, s.tableau_rows); // structurals + artificials
  // Shape bound: nnz stays linear in rows (each row holds a handful of
  // entries), far below the dense rows * cols footprint.
  EXPECT_LE(s.tableau_nnz, s.tableau_rows * 8);
  EXPECT_LT(s.tableau_nnz * 4, s.tableau_rows * s.tableau_cols);
}

// A diamond flow network shaped like the systems IPET emits for a
// pure-flow (fact-free) region:
//
//     src -> a -> { b | c } -> d -> sink        (sink row: sink == 1)
//
// Variables are edge counts; balance rows follow build_region's form
// (inflow - outflow == -src at the entry, == 0 elsewhere) plus the
// sink-sum row. Returns the problem and, via `hint`, a crash basis: a
// spanning tree of the flow network containing the directed unit path
// src..sink, ordered leaf-to-root so each elimination hits a +/-1 cell.
IlpProblem diamond_flow(std::vector<std::pair<int, int>>* hint) {
  IlpProblem p;
  const int ab = p.add_variable();
  const int ac = p.add_variable();
  const int bd = p.add_variable();
  const int cd = p.add_variable();
  const int dx = p.add_variable();
  p.set_objective(ab, 3);
  p.set_objective(ac, 7);
  p.set_objective(bd, 2);
  p.set_objective(cd, 1);
  p.set_objective(dx, 5);
  // Row 0, balance at a: -(ab + ac) == -1 (source injects one unit).
  p.add_constraint({{ab, Rational(-1)}, {ac, Rational(-1)}}, Cmp::eq, Rational(-1));
  // Row 1, balance at b: ab - bd == 0.
  p.add_constraint({{ab, Rational(1)}, {bd, Rational(-1)}}, Cmp::eq, Rational(0));
  // Row 2, balance at c: ac - cd == 0.
  p.add_constraint({{ac, Rational(1)}, {cd, Rational(-1)}}, Cmp::eq, Rational(0));
  // Row 3, balance at d: bd + cd - dx == 0.
  p.add_constraint({{bd, Rational(1)}, {cd, Rational(1)}, {dx, Rational(-1)}}, Cmp::eq,
                   Rational(0));
  // Row 4, sink sum: dx == 1.
  p.add_constraint({{dx, Rational(1)}}, Cmp::eq, Rational(1));
  if (hint != nullptr) {
    // Spanning tree {ab, bd, dx, ac} of the five balance/sink rows; the
    // ac arc hangs off row 2 (a leaf), the unit path a->b->d->sink
    // covers rows 0/1/3 with its arcs and row 4 with the sink arc. Row
    // ordering is leaf-to-root toward the sink-sum row.
    *hint = {{2, ac}, {0, ab}, {1, bd}, {3, dx}};
  }
  return p;
}

TEST(Ilp, CrashBasisSkipsPhaseOne) {
  // With a spanning-tree crash basis the solver must enter phase 2
  // directly: zero phase-1 pivots, identical optimum to the cold solve.
  std::vector<std::pair<int, int>> hint;
  IlpProblem hinted = diamond_flow(&hint);
  hinted.set_basis_hint(hint);
  IlpProblem cold = diamond_flow(nullptr);

  const LpSolution fast = hinted.solve_ilp();
  const LpSolution slow = cold.solve_ilp();
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast.objective, slow.objective);
  EXPECT_EQ(fast.objective, Rational(13)); // ac + cd + dx = 7 + 1 + 5
  EXPECT_EQ(fast.phase1_pivots, 0u);
  EXPECT_EQ(fast.crash_basis_rows, 4u);
  EXPECT_EQ(fast.phase2_pivots, fast.pivots_used);
  // The cold solve needs phase-1 work for the same system and says so.
  EXPECT_GT(slow.phase1_pivots, 0u);
  EXPECT_EQ(slow.crash_basis_rows, 0u);
  EXPECT_EQ(slow.phase1_pivots + slow.phase2_pivots, slow.pivots_used);
}

TEST(Ilp, CrashBasisPairSharesPhaseTwoEntry) {
  // solve_ilp_pair off a crash basis: both senses inherit the feasible
  // start, neither spends a phase-1 pivot, and the optima match two
  // independent cold solves bit for bit.
  std::vector<std::pair<int, int>> hint;
  IlpProblem hinted = diamond_flow(&hint);
  hinted.set_basis_hint(hint);
  std::vector<Rational> negated;
  for (int j = 0; j < hinted.num_variables(); ++j) negated.emplace_back(0);
  negated[0] = Rational(-3);
  negated[1] = Rational(-7);
  negated[2] = Rational(-2);
  negated[3] = Rational(-1);
  negated[4] = Rational(-5);
  const auto [wcet, bcet] = hinted.solve_ilp_pair(negated);
  ASSERT_TRUE(wcet.ok());
  ASSERT_TRUE(bcet.ok());
  EXPECT_EQ(wcet.objective, Rational(13));
  EXPECT_EQ(bcet.objective, Rational(-10)); // ab + bd + dx = 3 + 2 + 5
  EXPECT_EQ(wcet.phase1_pivots, 0u);
  EXPECT_EQ(bcet.phase1_pivots, 0u);
  EXPECT_EQ(wcet.crash_basis_rows, 4u);
}

TEST(Ilp, CrashBasisRepairsViolatedInequality) {
  // The crash path a->b->d->sink puts one unit on a_b, so a fact row
  // `a_b <= 0` starts violated: its slack would be -1. The solver must
  // hand that row (and only that row) to phase 1 on an artificial,
  // keep the tree basis for the flow rows, and reach the cold optimum.
  std::vector<std::pair<int, int>> hint;
  IlpProblem hinted = diamond_flow(&hint);
  hinted.add_constraint({{0, Rational(1)}}, Cmp::le, Rational(0));
  hinted.set_basis_hint(hint);
  IlpProblem cold = diamond_flow(nullptr);
  cold.add_constraint({{0, Rational(1)}}, Cmp::le, Rational(0));

  const LpSolution fast = hinted.solve_ilp();
  const LpSolution slow = cold.solve_ilp();
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast.objective, Rational(13)); // ac + cd + dx: the cap does not bind
  EXPECT_EQ(fast.objective, slow.objective);
  EXPECT_EQ(fast.crash_basis_rows, 4u);
  EXPECT_GT(fast.phase1_pivots, 0u);

  // Through the pair path the repaired basis is shared by both senses;
  // with a_b pinned to zero the only route left is a->c->d->sink.
  const std::vector<Rational> negated = {Rational(-3), Rational(-7), Rational(-2), Rational(-1),
                                         Rational(-5)};
  IlpProblem cold_min = diamond_flow(nullptr);
  cold_min.add_constraint({{0, Rational(1)}}, Cmp::le, Rational(0));
  for (int j = 0; j < cold_min.num_variables(); ++j) {
    cold_min.set_objective(j, negated[static_cast<std::size_t>(j)]);
  }
  const LpSolution bcet_cold = cold_min.solve_ilp();
  const auto [wcet, bcet] = hinted.solve_ilp_pair(negated);
  ASSERT_TRUE(wcet.ok());
  ASSERT_TRUE(bcet.ok());
  ASSERT_TRUE(bcet_cold.ok());
  EXPECT_EQ(wcet.objective, Rational(13));
  EXPECT_EQ(bcet.objective, bcet_cold.objective);
  EXPECT_EQ(bcet.objective, Rational(-13));
  EXPECT_EQ(wcet.crash_basis_rows, 4u);
  EXPECT_GT(wcet.phase1_pivots, 0u);
}

TEST(Ilp, CrashBasisKeepsSatisfiedInequality) {
  // `a_c <= 0` holds on the crash path (a_c carries no flow there), so
  // its slack stays basic and the solve still skips phase 1. The cap
  // binds: the optimum drops from 13 to the a->b->d->sink route's 10.
  std::vector<std::pair<int, int>> hint;
  IlpProblem hinted = diamond_flow(&hint);
  hinted.add_constraint({{1, Rational(1)}}, Cmp::le, Rational(0));
  hinted.set_basis_hint(hint);
  const LpSolution s = hinted.solve_ilp();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(10));
  EXPECT_EQ(s.phase1_pivots, 0u);
  EXPECT_EQ(s.crash_basis_rows, 4u);
}

TEST(Ilp, CrashBasisKeepsSatisfiedLowerBound) {
  // A lower bound written as `-terms <= -1` needs an artificial before
  // the crash. The crash path satisfies both variants below, once with
  // room to spare (a_b + b_d == 2) and once exactly (a_b == 1), so the
  // surplus must start basic instead: no phase 1, and the lower bound
  // forces the b route.
  const std::vector<std::vector<LinTerm>> lower_bounds = {
      {{0, Rational(-1)}, {2, Rational(-1)}}, // a_b + b_d >= 1
      {{0, Rational(-1)}},                    // a_b >= 1
  };
  for (const std::vector<LinTerm>& terms : lower_bounds) {
    std::vector<std::pair<int, int>> hint;
    IlpProblem hinted = diamond_flow(&hint);
    hinted.add_constraint(terms, Cmp::le, Rational(-1));
    hinted.set_basis_hint(hint);
    const LpSolution s = hinted.solve_ilp();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.objective, Rational(10));
    EXPECT_EQ(s.phase1_pivots, 0u);
    EXPECT_EQ(s.crash_basis_rows, 4u);
  }
}

TEST(Ilp, CrashBasisIgnoredUnderBranchRows) {
  // Branch & bound cold fallbacks carry extra rows the crash solution
  // may violate; they must run the ordinary two-phase method. Forcing a
  // fractional relaxation here is awkward with a pure unit flow, so
  // this only pins that a hinted problem still produces correct ILP
  // answers when B&B machinery engages via solve_ilp's limits path.
  std::vector<std::pair<int, int>> hint;
  IlpProblem hinted = diamond_flow(&hint);
  hinted.set_basis_hint(hint);
  SolveLimits limits;
  limits.node_limit = 4;
  const LpSolution s = hinted.solve_ilp(limits);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.objective, Rational(13));
}

// One seeded system: 8-12 structural variables and 20-40 mixed
// `<=`/`>=`/`=` rows with small integer coefficients on about half the
// cells, some of them with a negative rhs. A random integer point
// satisfies every row (so each system is feasible and its ILP has an
// integral solution), and one row caps the sum of all variables (so
// the objective is bounded). Dense rows make pivots both fill in new
// entries and cancel stored ones, which leaves stale and repeated rows
// in the solver's column index.
IlpProblem seeded_system(std::uint64_t seed, std::vector<Rational>* alt) {
  Rng rng(seed);
  const int n = 8 + static_cast<int>(rng.below(5));
  const int m = 20 + static_cast<int>(rng.below(21));
  IlpProblem p;
  std::vector<std::int64_t> point;
  for (int j = 0; j < n; ++j) {
    p.add_variable();
    point.push_back(rng.range(0, 4));
    p.set_objective(j, Rational(rng.range(-3, 6)));
    if (alt != nullptr) alt->emplace_back(rng.range(-6, 3));
  }
  const int cap_row = static_cast<int>(rng.below(static_cast<std::uint32_t>(m)));
  for (int r = 0; r < m; ++r) {
    std::vector<LinTerm> terms;
    std::int64_t lhs = 0;
    for (int j = 0; j < n; ++j) {
      const std::int64_t a = r == cap_row ? 1 : (rng.chance(0.5) ? rng.range(-3, 3) : 0);
      if (a == 0) continue;
      terms.push_back({j, Rational(a)});
      lhs += a * point[static_cast<std::size_t>(j)];
    }
    const std::uint32_t kind = r == cap_row ? 0 : rng.below(10);
    const std::int64_t slack = rng.range(0, 3);
    if (kind < 6) {
      p.add_constraint(std::move(terms), Cmp::le, Rational(lhs + slack));
    } else if (kind < 9) {
      p.add_constraint(std::move(terms), Cmp::ge, Rational(lhs - slack));
    } else {
      p.add_constraint(std::move(terms), Cmp::eq, Rational(lhs));
    }
  }
  return p;
}

std::string describe(const LpSolution& s) {
  std::string out = "status " + std::to_string(static_cast<int>(s.status)) + " pivots " +
                    std::to_string(s.pivots_used) + " phase1 " +
                    std::to_string(s.phase1_pivots) + " objective " + s.objective.to_string() +
                    " values";
  for (const Rational& v : s.values) out += " " + v.to_string();
  return out;
}

TEST(Ilp, PivotSequencePinnedOnSeededLps) {
  // Every pivot decision of the exact simplex — entering column, leaving
  // row, phase-1 repair, warm-start dual pivots — is pinned here through
  // its observable trace: the pivot count, the phase-1 share, the optimal
  // objective and the optimal vertex. Any change to a scan order, a tie
  // rule or the row/column bookkeeping that alters a single pivot shows
  // up as a diverged count or vertex on some seed.
  struct Case {
    std::uint64_t seed;
    enum class Solve { lp, ilp, pair } solve;
    std::vector<std::string> expected; // describe() of each result
  };
  using Solve = Case::Solve;
  const std::vector<Case> cases = {
      {1, Solve::lp,
       {"status 0 pivots 31 phase1 16 objective 144495/4063 values 430/4063 4152/4063 "
        "14608/12189 5704/4063 0 2330/4063 31970/12189 945/4063 3115/4063 5955/4063 2473/4063"}},
      {2, Solve::lp,
       {"status 0 pivots 31 phase1 30 objective 38 values 4 3 1 3 2 1 3 0"}},
      {3, Solve::lp,
       {"status 0 pivots 34 phase1 31 objective 15613/244 values 383/732 769/732 2509/732 0 "
        "661/366 923/732 241/183 9431/2928 1645/1464 3331/732 1357/732"}},
      {4, Solve::lp,
       {"status 0 pivots 37 phase1 34 objective -6 values 3 0 1 0 1 3 4 2 0"}},
      {5, Solve::lp,
       {"status 0 pivots 23 phase1 21 objective 53665/1181 values 3469/2362 3327/1181 "
        "605/1181 3030/1181 5098/3543 2533/1181 4883/1181 3384/1181 10601/3543"}},
      {6, Solve::lp,
       {"status 0 pivots 40 phase1 39 objective -9 values 0 2 0 0 1 1 1 4 4 0 0"}},
      {7, Solve::lp,
       {"status 0 pivots 29 phase1 24 objective 58/3 values 3 4 1 3 3 4/3 0 0 0 0 3"}},
      {8, Solve::lp,
       {"status 0 pivots 29 phase1 26 objective 606757/30741 values 32196/10247 102982/30741 "
        "428939/276669 9085/10247 852856/276669 371254/92223 1181/92223 540706/276669 "
        "341434/276669 358058/276669 78940/276669 963877/276669"}},
      {9, Solve::lp,
       {"status 0 pivots 18 phase1 13 objective 21837/403 values 1135/403 766/403 1038/403 "
        "1806/403 0 539/403 0 358/403"}},
      {10, Solve::lp,
       {"status 0 pivots 34 phase1 23 objective 14670073/209144 values 86009/26143 "
        "219133/209144 1201295/418288 876425/418288 1065329/418288 1569367/418288 "
        "715825/418288 385407/104572 334767/104572 1315335/418288 168011/418288 "
        "1778523/418288"}},
      {11, Solve::lp,
       {"status 0 pivots 22 phase1 14 objective 83231/3097 values 9049/3097 180/3097 "
        "5710/3097 270/3097 14505/3097 15477/3097 5 7216/3097 3339/3097"}},
      {12, Solve::lp,
       {"status 0 pivots 46 phase1 46 objective 8 values 1 4 1 0 4 0 2 2 0"}},
      {13, Solve::lp,
       {"status 0 pivots 46 phase1 42 objective 4 values 4 1 3 0 1 1 3 1 4"}},
      {14, Solve::lp,
       {"status 0 pivots 34 phase1 25 objective 9440/179 values 0 2959/1074 1387/537 1574/537 "
        "4981/1074 2179/1074 969/358 2083/537 913/1074 322/537 31/1074"}},
      {15, Solve::lp,
       {"status 0 pivots 38 phase1 28 objective 1124167/17054 values 17009/17054 74113/17054 "
        "24229/8527 0 59363/17054 7467/17054 9037/8527 57885/17054 89415/17054 93287/17054 "
        "63603/17054"}},
      {16, Solve::lp,
       {"status 0 pivots 23 phase1 17 objective 2852618/36693 values 55790/36693 22852/36693 "
        "0 49988/36693 130795/36693 86059/36693 73120/36693 25883/12231 83306/36693 "
        "28760/12231 0 178100/36693"}},
      {17, Solve::lp,
       {"status 0 pivots 29 phase1 24 objective 46751/706 values 984/353 1779/706 1130/353 0 "
        "875/706 0 757/353 4963/1412 2939/706 1569/706 2089/706"}},
      {18, Solve::lp,
       {"status 0 pivots 45 phase1 38 objective 70699/3099 values 0 12763/3099 12418/3099 0 "
        "1226/3099 2993/1033 49/3099 715/1033 3329/3099 10150/3099 342/1033"}},
      {19, Solve::lp,
       {"status 0 pivots 38 phase1 32 objective 49634/6183 values 110/687 22505/6183 0 "
        "1298/687 2269/687 807/229 0 3227/687 53/2061 12011/6183 2710/687"}},
      {20, Solve::lp,
       {"status 0 pivots 19 phase1 12 objective 43129/1397 values 5402/6985 15041/6985 "
        "53452/20955 34948/6985 418/635 10281/6985 38798/6985 10746/6985 6672/1397 29588/6985 "
        "14566/6985"}},
      {21, Solve::lp,
       {"status 0 pivots 29 phase1 23 objective 9539/360 values 1381/360 53/20 67/30 229/60 "
        "163/120 0 311/180 491/360"}},
      {22, Solve::lp,
       {"status 0 pivots 23 phase1 15 objective 983083/24066 values 29107/12033 47543/24066 "
        "487/126 88429/24066 136/63 26521/24066 4423/8022 1157/382 5444/1719 0 11267/12033 "
        "1466/12033"}},
      {23, Solve::lp,
       {"status 0 pivots 24 phase1 19 objective 1108612/18397 values 10153/18397 37767/18397 "
        "59148/18397 3414/18397 3 18486/18397 21145/18397 40043/18397 74472/18397 38024/18397"}},
      {24, Solve::lp,
       {"status 0 pivots 39 phase1 29 objective 6592341/93484 values 240459/93484 44397/23371 "
        "64003/46742 144711/93484 138211/93484 0 370685/93484 13005/93484 325699/93484 "
        "276117/93484 458407/93484 56051/23371"}},
      {25, Solve::lp,
       {"status 0 pivots 20 phase1 13 objective 541327/9332 values 8824/2333 22637/9332 0 "
        "11767/4666 20637/4666 3222/2333 1500/2333 7973/9332 1954/2333 9639/4666 9485/2333 0"}},
      {26, Solve::lp,
       {"status 0 pivots 25 phase1 22 objective 0 values 2 3 4 1 3 4 1 1 0"}},
      {27, Solve::lp,
       {"status 0 pivots 30 phase1 26 objective 34 values 3 1 3 1 1 0 3 3 3"}},
      {28, Solve::lp,
       {"status 0 pivots 31 phase1 20 objective 11116/321 values 364/321 415/107 0 158/107 0 "
        "68/107 17/107 108/107 869/321"}},
      {29, Solve::ilp,
       {"status 0 pivots 300 phase1 16 objective 48 values 3 3 0 4 4 1 0 1 0 0 1"}},
      {30, Solve::ilp,
       {"status 0 pivots 30 phase1 13 objective 37 values 0 3 3 0 3 3 3 4"}},
      {31, Solve::ilp,
       {"status 0 pivots 41 phase1 32 objective 16 values 2 0 0 4 4 4 3 1 3 3 4"}},
      {32, Solve::ilp,
       {"status 0 pivots 2017 phase1 20 objective 55 values 3 1 1 1 4 1 4 0 2 0 3"}},
      {33, Solve::ilp,
       {"status 0 pivots 33 phase1 31 objective 0 values 0 3 4 4 1 4 1 3 1"}},
      {34, Solve::ilp,
       {"status 0 pivots 119 phase1 26 objective 43 values 4 1 2 4 4 0 4 0 3 4 0"}},
      {35, Solve::pair,
       {"status 0 pivots 131 phase1 23 objective 14 values 4 3 3 1 2 1 3 3 0",
        "status 0 pivots 131 phase1 23 objective -61 values 4 3 3 1 2 1 3 3 0"}},
      {36, Solve::pair,
       {"status 0 pivots 68 phase1 39 objective -7 values 1 2 4 3 2 0 3 2 3 4 1",
        "status 0 pivots 68 phase1 39 objective -24 values 1 2 4 3 2 0 3 2 3 4 1"}},
      {37, Solve::pair,
       {"status 0 pivots 55 phase1 22 objective 52 values 1 4 0 2 4 3 2 4",
        "status 0 pivots 55 phase1 22 objective -47 values 1 4 0 2 4 3 2 4"}},
      {38, Solve::pair,
       {"status 0 pivots 431 phase1 11 objective 23 values 4 0 1 1 0 4 4 4",
        "status 0 pivots 431 phase1 11 objective -67 values 3 1 1 0 0 4 3 5"}},
      {39, Solve::pair,
       {"status 0 pivots 24 phase1 19 objective 22 values 0 1 2 1 1 1 3 3",
        "status 0 pivots 24 phase1 19 objective -27 values 0 1 2 1 1 1 3 3"}},
      {40, Solve::pair,
       {"status 0 pivots 73 phase1 12 objective 39 values 3 4 2 0 4 4 1 0",
        "status 0 pivots 73 phase1 12 objective -30 values 3 4 2 0 4 4 1 0"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    std::vector<Rational> alt;
    const IlpProblem p = seeded_system(c.seed, c.solve == Solve::pair ? &alt : nullptr);
    std::vector<std::string> actual;
    switch (c.solve) {
    case Solve::lp: actual.push_back(describe(p.solve_lp())); break;
    case Solve::ilp: actual.push_back(describe(p.solve_ilp())); break;
    case Solve::pair: {
      const auto [primary, alternate] = p.solve_ilp_pair(alt);
      actual.push_back(describe(primary));
      actual.push_back(describe(alternate));
      break;
    }
    }
    EXPECT_EQ(actual, c.expected);
  }
}

} // namespace
} // namespace wcet
