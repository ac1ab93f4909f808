// Exact linear programming (two-phase primal simplex on rationals) with
// branch & bound for integrality. This is the solver behind IPET path
// analysis: maximize the execution-count-weighted sum of basic-block
// times subject to flow conservation and loop/flow-fact constraints.
//
// The solver is exact (all arithmetic on 64-bit rationals whose every
// intermediate is computed in 128 bits, see support/rational.hpp) but
// tuned for the large sparse systems IPET produces:
//   - tableau rows are stored sparsely (sorted column/value entries);
//     a pivot merges each touched row with the pivot row in one sorted
//     sweep, so memory and work scale with the nonzero count instead of
//     rows * columns,
//   - pivots touch only the nonzero columns of the pivot row,
//   - a column index (column -> rows that may hold an entry there, all
//     lists in one pool) lets the ratio test, each pivot and each crash
//     elimination visit only the rows holding the pivot column instead
//     of all of them,
//   - column selection uses Dantzig's rule with an automatic fallback
//     to Bland's rule after a degenerate-pivot streak (cycle-free),
//     and reads the largest reduced cost off a lazy max-heap that a
//     pivot refreshes only at the pivot row's columns; the pick is the
//     one a full scan makes, ties to the lowest column,
//   - branch & bound explores nodes in best-bound order and re-solves
//     children by appending their branch rows to the root-optimal
//     tableau and running the dual simplex (warm start) instead of
//     two-phase-from-scratch.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/budget.hpp"
#include "support/rational.hpp"

namespace wcet {

enum class Cmp { le, ge, eq };

struct LinTerm {
  int var = 0;
  Rational coeff;
};

// Per-solve resource caps (see support/budget.hpp). Each LP/ILP solve
// gets the full pivot/node envelope — a decomposed IPET's sub-ILPs
// degrade independently instead of starving one another.
struct SolveLimits {
  int node_limit = 20000;           // branch & bound nodes per solve
  std::uint64_t pivot_limit = 0;    // simplex pivots per solve; 0 = unlimited
  const AnalysisGovernor* governor = nullptr; // cancellation checkpoints
};

struct LpSolution {
  // `degraded`: branch & bound was truncated by a node or pivot limit,
  // and `objective` is the best *proven* bound on the true optimum —
  // max(incumbent, every truncated subtree's relaxation bound) in the
  // maximize sense, so the true optimum is <= objective. No integral
  // witness exists; `values` is empty. `pivot_limit`: the root
  // relaxation itself ran out of pivots — no bound of any kind.
  // `node_limit` is kept for the theoretical corner where a limit fired
  // before any bound existed.
  enum class Status { optimal, infeasible, unbounded, node_limit, degraded, pivot_limit };
  Status status = Status::infeasible;
  Rational objective;
  std::vector<Rational> values; // per structural variable

  // Telemetry: resources actually consumed by this solve.
  std::uint64_t pivots_used = 0;
  // Split of `pivots_used` by simplex phase: `phase1_pivots` counts the
  // feasibility pivots (phase-1 runs of the root solve and of every
  // cold branch-and-bound fallback), `phase2_pivots` the rest (phase-2
  // optimization plus all warm-start dual pivots). A solve that starts
  // from a crash basis (see IlpProblem::set_basis_hint) reports
  // phase1_pivots == 0 unless the crash solution violates an
  // inequality row.
  std::uint64_t phase1_pivots = 0;
  std::uint64_t phase2_pivots = 0;
  // Number of rows whose basic column came from the caller's crash
  // basis instead of an artificial variable (0: no hint was usable).
  std::uint64_t crash_basis_rows = 0;
  int nodes_used = 0;

  // Tableau shape at the final basis: rows store only nonzero entries,
  // so nnz << rows * cols on the sparse systems IPET emits. Exported so
  // tests can pin the memory shape (a dense regression would silently
  // multiply solver memory by the column count).
  std::size_t tableau_rows = 0;
  std::size_t tableau_cols = 0;
  std::size_t tableau_nnz = 0;

  bool ok() const { return status == Status::optimal; }
};

class IlpProblem {
public:
  struct Row {
    std::vector<LinTerm> terms;
    Cmp cmp = Cmp::le;
    Rational rhs;
  };

  // All variables are constrained to be >= 0.
  int add_variable();
  int num_variables() const { return static_cast<int>(objective_.size()); }

  void set_objective(int var, Rational coeff); // maximize sum coeff*var
  void add_constraint(std::vector<LinTerm> terms, Cmp cmp, Rational rhs);
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  // Network-flow crash basis. `hint` is an ordered list of
  // (constraint row, structural variable) pairs naming a starting basis
  // for the equality rows — for IPET regions, the arcs of a spanning
  // tree of the flow network plus a unit source-to-sink path. Hinted
  // rows start basic on their structural column instead of an
  // artificial variable. Every inequality row then starts on its slack
  // when the implied basic solution (the "crash solution") satisfies
  // it; a violated inequality gets an artificial, so phase 1 repairs
  // only those rows. A system whose every equality row is hinted (or
  // redundant) and whose inequalities the crash solution satisfies
  // enters phase 2 directly (phase1_pivots == 0).
  //
  // Caller contract (checked, violations are fatal):
  //   - every hinted row is an equality with a nonzero coefficient on
  //     its hinted column (after eliminating earlier hints in order),
  //   - each row and each column is hinted at most once,
  //   - the crash solution is nonnegative and satisfies every
  //     equality row: after reducing the tableau to the hinted basis,
  //     every hinted or equality row has a right-hand side >= 0 (a
  //     redundant row reduces to exactly zero).
  // The hint is consulted by solve_lp / solve_ilp / solve_ilp_pair for
  // the root (no extra branch rows); branch-and-bound re-solves carry
  // branch rows the crash solution may violate and run the ordinary
  // two-phase method.
  void set_basis_hint(std::vector<std::pair<int, int>> hint);

  // Solve the LP relaxation.
  LpSolution solve_lp() const;
  // Solve with integrality on all variables (branch & bound on the LP).
  LpSolution solve_ilp(int node_limit = 20000) const;
  // As above, with a full resource envelope (pivot budget, cancellation
  // checkpoints). Exceeding the pivot/node caps yields a `degraded`
  // frontier bound (see LpSolution::Status), never a silent incumbent.
  LpSolution solve_ilp(const SolveLimits& limits) const;
  // Solve the same constraint system twice — under the stored objective
  // and under `alt_objective` — sharing construction and the phase-1
  // feasibility pivots (phase 1 never reads the objective, so the
  // feasible starting basis is identical for both senses). Each sense
  // then runs its own phase 2 and branch & bound. Optima equal a
  // from-scratch solve's exactly; only the optimal vertex reached may
  // differ. This is how IPET solves the WCET/BCET pair of one region
  // for roughly half the cost of two independent solves.
  std::pair<LpSolution, LpSolution> solve_ilp_pair(const std::vector<Rational>& alt_objective,
                                                   int node_limit = 20000) const;
  std::pair<LpSolution, LpSolution> solve_ilp_pair(const std::vector<Rational>& alt_objective,
                                                   const SolveLimits& limits) const;

private:
  LpSolution solve_lp_with(const std::vector<Row>& extra,
                           const std::vector<Rational>& objective,
                           const SolveLimits* limits = nullptr,
                           std::uint64_t* pivots = nullptr,
                           std::uint64_t* phase1_pivots = nullptr) const;

  std::vector<Rational> objective_;
  std::vector<Row> rows_;
  std::vector<std::pair<int, int>> basis_hint_;
};

} // namespace wcet
