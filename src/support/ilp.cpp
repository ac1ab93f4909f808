#include "support/ilp.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <span>

#include "support/diag.hpp"
#include "support/fault_inject.hpp"

namespace wcet {

int IlpProblem::add_variable() {
  objective_.emplace_back(0);
  return num_variables() - 1;
}

void IlpProblem::set_objective(int var, Rational coeff) {
  objective_[static_cast<std::size_t>(var)] = std::move(coeff);
}

void IlpProblem::add_constraint(std::vector<LinTerm> terms, Cmp cmp, Rational rhs) {
  for (const auto& t : terms) {
    WCET_CHECK(t.var >= 0 && t.var < num_variables(), "constraint references unknown variable");
  }
  rows_.push_back(Row{std::move(terms), cmp, std::move(rhs)});
}

void IlpProblem::set_basis_hint(std::vector<std::pair<int, int>> hint) {
  std::vector<char> row_used(rows_.size(), 0);
  std::vector<char> col_used(objective_.size(), 0);
  for (const auto& [row, var] : hint) {
    WCET_CHECK(row >= 0 && row < num_constraints(), "basis hint names an unknown row");
    WCET_CHECK(var >= 0 && var < num_variables(), "basis hint names an unknown variable");
    WCET_CHECK(rows_[static_cast<std::size_t>(row)].cmp == Cmp::eq,
               "basis hints cover equality rows only");
    WCET_CHECK(!row_used[static_cast<std::size_t>(row)], "basis hint repeats a row");
    WCET_CHECK(!col_used[static_cast<std::size_t>(var)], "basis hint repeats a column");
    row_used[static_cast<std::size_t>(row)] = 1;
    col_used[static_cast<std::size_t>(var)] = 1;
  }
  basis_hint_ = std::move(hint);
}

namespace {

// Consecutive degenerate pivots before the column rule falls back from
// Dantzig to Bland (which cannot cycle).
constexpr int k_bland_switch = 128;

// Per column, the rows that may store an entry there (see
// Simplex::collect). Every list lives in one pool as a span; a list that
// outgrows its span moves to the end of the pool with twice the room.
// So building the index and copying it (a warm-start clone) cost a few
// flat vectors instead of one allocation per column.
class ColumnIndex {
public:
  // One column per count, with room for that many rows.
  void assign(const std::vector<std::uint32_t>& counts) {
    spans_.clear();
    spans_.reserve(counts.size());
    std::uint32_t next = 0;
    for (const std::uint32_t count : counts) {
      spans_.push_back({next, 0, count});
      next += count;
    }
    pool_.assign(next, 0);
  }
  void add_column() { spans_.push_back({static_cast<std::uint32_t>(pool_.size()), 0, 0}); }
  void push(std::size_t col, std::size_t row) {
    Span& span = spans_[col];
    if (span.size == span.cap) {
      const auto begin = static_cast<std::uint32_t>(pool_.size());
      const std::uint32_t cap = span.cap == 0 ? 2 : 2 * span.cap;
      pool_.resize(pool_.size() + cap);
      std::copy_n(pool_.begin() + span.begin, span.size, pool_.begin() + begin);
      span.begin = begin;
      span.cap = cap;
    }
    pool_[span.begin + span.size++] = static_cast<std::uint32_t>(row);
  }
  std::span<std::uint32_t> rows(std::size_t col) {
    const Span& span = spans_[col];
    return {pool_.data() + span.begin, span.size};
  }
  void truncate(std::size_t col, std::size_t size) {
    spans_[col].size = static_cast<std::uint32_t>(size);
  }

private:
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };
  std::vector<Span> spans_;
  std::vector<std::uint32_t> pool_;
};

// Row-wise simplex tableau with explicit basis bookkeeping. Rows are
// sparse (sorted column/value entries, no stored zeros; the rhs held
// separately), so tableau memory scales with the nonzero count and the
// warm start can append branch rows and their slack columns in place —
// existing rows never materialize the new columns. A column index
// (column -> rows that may store an entry there) lets a pivot visit
// only the rows holding its column, and a pricing heap hands column
// selection the largest positive reduced cost without a scan.
class Simplex {
public:
  // `pivot_limit`: the per-solve pivot budget ran out mid-iteration; no
  // optimal basis exists. `stalled` keeps its warm-start meaning (dual
  // safety limit; the caller re-solves cold).
  enum class Status { optimal, infeasible, unbounded, stalled, pivot_limit };

  // Installs the per-solve resource envelope: a shared pivot counter
  // (copies of this tableau — warm-start clones — keep charging the
  // same counter), an optional cap on it, and a governor checked for
  // cooperative cancellation every 64 pivots.
  void set_limits(const AnalysisGovernor* governor, std::uint64_t* pivot_count,
                  std::uint64_t pivot_limit, std::uint64_t* phase1_pivots = nullptr) {
    governor_ = governor;
    pivot_count_ = pivot_count;
    pivot_limit_ = pivot_limit;
    phase1_pivots_ = phase1_pivots;
  }

  struct Ent {
    std::size_t col = 0;
    Rational val;
  };
  using SparseRow = std::vector<Ent>;

  // `hint`: optional crash basis (see IlpProblem::set_basis_hint) —
  // ordered (row, structural column) pairs. Hinted rows are built
  // without an artificial; after the row pass the tableau is reduced to
  // the hinted basis by one elimination per hint (in hint order, so a
  // children-before-parents tree order keeps each pivot cell at its
  // original +-1 coefficient); inequality rows the crash solution
  // leaves at a negative rhs are then repaired in place. Only valid
  // without `extra` rows: branch & bound re-solves run the ordinary
  // two-phase method.
  Simplex(std::size_t num_vars, const std::vector<IlpProblem::Row>& base,
          const std::vector<IlpProblem::Row>& extra, const std::vector<Rational>& objective,
          const std::vector<std::pair<int, int>>* hint = nullptr)
      : n_(num_vars), objective_(objective) {
    m_ = base.size() + extra.size();
    std::vector<int> hint_col;
    if (hint != nullptr && !hint->empty()) {
      WCET_CHECK(extra.empty(), "crash basis requires a branch-row-free system");
      hint_col.assign(m_, -1);
      for (const auto& [row, var] : *hint) {
        hint_col[static_cast<std::size_t>(row)] = var;
      }
    }
    const auto hinted = [&](std::size_t r) {
      return !hint_col.empty() && hint_col[r] >= 0;
    };
    const auto row_at = [&](std::size_t r) -> const IlpProblem::Row& {
      return r < base.size() ? base[r] : extra[r - base.size()];
    };
    // Normalization to rhs >= 0 happens on the fly (a negative-rhs row
    // is built with negated coefficients and a flipped comparison), so
    // the caller's rows are never copied.
    const auto flipped_cmp = [](const IlpProblem::Row& row) {
      if (!row.rhs.is_negative()) return row.cmp;
      if (row.cmp == Cmp::le) return Cmp::ge;
      if (row.cmp == Cmp::ge) return Cmp::le;
      return Cmp::eq;
    };

    // Column layout: [structural n][slack/surplus per row][artificial
    // per row as needed]; the rhs lives in its own vector.
    std::size_t num_slack = 0;
    num_art_ = 0;
    for (std::size_t r = 0; r < m_; ++r) {
      const Cmp cmp = flipped_cmp(row_at(r));
      if (cmp != Cmp::eq) ++num_slack;
      if (cmp != Cmp::le && !hinted(r)) ++num_art_;
    }
    cols_ = n_ + num_slack + num_art_;
    is_artificial_.assign(cols_, false);
    mat_.resize(m_);
    rhs_.resize(m_);
    basis_.resize(m_);
    obj_.assign(cols_, Rational(0));

    std::vector<LinTerm> terms; // sort scratch, reused across rows
    const auto by_var = [](const LinTerm& a, const LinTerm& b) { return a.var < b.var; };
    std::size_t next_slack = n_;
    std::size_t next_art = n_ + num_slack;
    for (std::size_t r = 0; r < m_; ++r) {
      const IlpProblem::Row& row = row_at(r);
      const bool flip = row.rhs.is_negative();
      const Cmp cmp = flipped_cmp(row);
      // Sort and combine the structural terms (duplicate variables add up,
      // exactly as the former dense accumulation did; exact addition is
      // order-independent). Slack/artificial columns follow the
      // structural block, so appending them keeps the row sorted. A
      // row emitted in variable order is read in place.
      const std::vector<LinTerm>* sorted = &row.terms;
      if (!std::is_sorted(row.terms.begin(), row.terms.end(), by_var)) {
        terms.assign(row.terms.begin(), row.terms.end());
        std::sort(terms.begin(), terms.end(), by_var);
        sorted = &terms;
      }
      SparseRow& sr = mat_[r];
      sr.reserve(sorted->size() + 2); // + slack and artificial
      for (const LinTerm& t : *sorted) {
        const Rational coeff = flip ? -t.coeff : t.coeff;
        if (!sr.empty() && sr.back().col == static_cast<std::size_t>(t.var)) {
          sr.back().val += coeff;
        } else {
          sr.push_back({static_cast<std::size_t>(t.var), coeff});
        }
      }
      sr.erase(std::remove_if(sr.begin(), sr.end(),
                              [](const Ent& e) { return e.val.is_zero(); }),
               sr.end());
      rhs_[r] = flip ? -row.rhs : row.rhs;
      switch (cmp) {
      case Cmp::le:
        sr.push_back({next_slack, Rational(1)});
        basis_[r] = next_slack++;
        break;
      case Cmp::ge:
        sr.push_back({next_slack, Rational(-1)});
        ++next_slack;
        sr.push_back({next_art, Rational(1)});
        is_artificial_[next_art] = true;
        basis_[r] = next_art++;
        break;
      case Cmp::eq:
        if (hinted(r)) {
          // Crash basis: the basic column is installed by the
          // elimination pass below; no artificial is created.
          basis_[r] = static_cast<std::size_t>(hint_col[r]);
          break;
        }
        sr.push_back({next_art, Rational(1)});
        is_artificial_[next_art] = true;
        basis_[r] = next_art++;
        break;
      }
    }

    {
      std::vector<std::uint32_t> count(cols_, 0);
      for (const SparseRow& sr : mat_) {
        for (const Ent& e : sr) ++count[e.col];
      }
      col_rows_.assign(count);
    }
    for (std::size_t r = 0; r < m_; ++r) {
      for (const Ent& e : mat_[r]) col_rows_.push(e.col, r);
    }
    row_seen_.assign(m_, 0);

    if (!hint_col.empty()) {
      // Reduce to the hinted basis: one targeted elimination per hint.
      // This is the whole price of the crash start — there is no column
      // selection, no ratio test and no objective pricing, and a tree
      // order keeps fill-in at the network-simplex cut structure.
      for (const auto& [row, var] : *hint) {
        crash_eliminate(static_cast<std::size_t>(row), static_cast<std::size_t>(var));
      }
      crash_rows_ = hint->size();
      // The eliminations only subtracted slack-free equality rows, so
      // every slack (and artificial) column is still a unit vector, and
      // an inequality row whose rhs went negative is repaired in place
      // by negating it. The flow rows keep their tree basis.
      const auto is_slack = [&](std::size_t c) { return c >= n_ && c < n_ + num_slack; };
      for (std::size_t r = 0; r < m_; ++r) {
        SparseRow& sr = mat_[r];
        // A `>=` row keeps its surplus, then its artificial, last.
        const bool ge_row = is_artificial_[basis_[r]] && sr.size() >= 2 &&
                            is_slack(sr[sr.size() - 2].col);
        if (ge_row ? rhs_[r].is_positive() : !rhs_[r].is_negative()) continue;
        WCET_CHECK(ge_row || is_slack(basis_[r]), "crash basis start is primal-infeasible");
        for (Ent& e : sr) e.val = -e.val;
        rhs_[r] = -rhs_[r];
        if (ge_row) {
          // The crash solution satisfies the `>=` row: its surplus, now
          // +1, becomes basic, and the artificial is fixed at zero by
          // dropping its only entry.
          sr.pop_back();
          basis_[r] = sr.back().col;
          --num_art_;
          continue;
        }
        // A `<=` row (fact, loop bound, persistence) the crash solution
        // violates: hand it to phase 1 on a fresh artificial, so phase
        // 1 repairs only such rows.
        sr.push_back({cols_, Rational(1)});
        is_artificial_.push_back(true);
        obj_.emplace_back(0);
        col_rows_.add_column();
        col_rows_.push(cols_, r);
        basis_[r] = cols_++;
        ++num_art_;
      }
    }
  }

  std::size_t crash_rows() const { return crash_rows_; }

  // Two-phase primal solve from scratch.
  Status solve() {
    const Status feasible = phase1();
    if (feasible != Status::optimal) return feasible;
    return phase2();
  }

  // Swap in a different objective before phase2(). Valid on a tableau
  // that finished phase 1: phase 1 never reads the objective, so the
  // same feasible basis serves any number of senses.
  void install_objective(std::vector<Rational> objective) { objective_ = std::move(objective); }

  // Phase 1: find a feasible basis (drive the artificials to zero).
  // Returns optimal when a feasible basis is ready for phase 2. The
  // wrapper attributes every pivot spent inside to the phase-1 counter
  // (the remainder of the shared pivot counter is phase-2/warm work).
  Status phase1() {
    const std::uint64_t start = pivot_count_ != nullptr ? *pivot_count_ : 0;
    const Status status = phase1_impl();
    if (phase1_pivots_ != nullptr && pivot_count_ != nullptr) {
      *phase1_pivots_ += *pivot_count_ - start;
    }
    return status;
  }

  Status phase1_impl() {
    if (num_art_ > 0) {
      // Phase 1: maximize -(sum of artificials) == drive them to zero.
      for (std::size_t c = 0; c < cols_; ++c) {
        obj_[c] = is_artificial_[c] ? Rational(-1) : Rational(0);
      }
      obj_rhs_ = Rational(0);
      // Price out the artificial basic columns.
      for (std::size_t r = 0; r < m_; ++r) {
        if (!is_artificial_[basis_[r]]) continue;
        for (const Ent& e : mat_[r]) obj_[e.col] += e.val;
        obj_rhs_ += rhs_[r];
      }
      const Status feasibility = primal(true);
      WCET_CHECK(feasibility != Status::unbounded, "phase-1 LP cannot be unbounded");
      // Pivot exhaustion mid-phase-1 must not be mistaken for
      // infeasibility (a nonzero artificial sum merely means "not done").
      if (feasibility == Status::pivot_limit) return feasibility;
      if (!obj_rhs_.is_zero()) return Status::infeasible;
      // Pivot any artificial still in the basis (at value zero) out.
      for (std::size_t r = 0; r < m_; ++r) {
        if (!is_artificial_[basis_[r]]) continue;
        std::size_t enter = cols_;
        for (const Ent& e : mat_[r]) { // entries ascend: first real column
          if (!is_artificial_[e.col] && !e.val.is_zero()) {
            enter = e.col;
            break;
          }
        }
        if (enter != cols_) pivot(r, enter);
        // Otherwise the row is all-zero over real columns: redundant
        // row; the artificial stays basic at value zero, harmless.
      }
      // Artificial columns are barred from re-entering the basis, and
      // from here on no pivot rule ever reads an artificial cell: they
      // only inflate every subsequent row update. Dropping their stored
      // entries frees that memory and work without touching a single
      // decision the solver makes.
      for (SparseRow& row : mat_) {
        row.erase(std::remove_if(row.begin(), row.end(),
                                 [&](const Ent& e) { return is_artificial_[e.col]; }),
                  row.end());
      }
    }
    return Status::optimal;
  }

  Status phase2() {
    // Phase 2: maximize the real objective. The objective row holds
    // c_j - z_j; start from c and price out basic columns. Artificial
    // columns are barred from entering the basis: blocking at the pivot
    // rule is the only robust way — any objective-row penalty on them
    // gets rewritten by pricing.
    for (std::size_t c = 0; c < cols_; ++c) {
      obj_[c] = c < n_ ? objective_[c] : Rational(0);
    }
    obj_rhs_ = Rational(0);
    for (std::size_t r = 0; r < m_; ++r) {
      const Rational cb = basis_[r] < n_ ? objective_[basis_[r]] : Rational(0);
      if (cb.is_zero()) continue;
      for (const Ent& e : mat_[r]) obj_[e.col].sub_mul(cb, e.val);
      obj_rhs_.sub_mul(cb, rhs_[r]);
    }
    return primal(false);
  }

  // Warm start: append `row` to an optimal tableau and re-optimize with
  // the dual simplex. Only inequality rows are supported (branch & bound
  // emits single-variable bounds). Returns `stalled` if the dual
  // iteration hits its safety limit; the caller then re-solves cold.
  Status reoptimize_with_row(const IlpProblem::Row& row) {
    // Convert to <= form (possibly with negative rhs — that is the
    // primal infeasibility the dual simplex repairs).
    WCET_CHECK(row.cmp != Cmp::eq, "warm start supports inequality rows only");
    const bool flip = row.cmp == Cmp::ge;
    // New slack column for the appended row; existing sparse rows hold a
    // structural zero there, so only the bookkeeping vectors grow.
    obj_.emplace_back(0);
    is_artificial_.push_back(false);
    col_rows_.add_column();
    const std::size_t slack_col = cols_++;

    std::vector<Rational> new_row(cols_); // dense scratch for the one new row
    for (const auto& t : row.terms) {
      const auto c = static_cast<std::size_t>(t.var);
      if (flip) new_row[c] -= t.coeff;
      else new_row[c] += t.coeff;
    }
    new_row[slack_col] = Rational(1);
    Rational new_rhs = flip ? -row.rhs : row.rhs;

    // Express the row in the current basis: eliminate every basic
    // column (each tableau row is a unit vector in its basic column).
    for (std::size_t r = 0; r < m_; ++r) {
      const Rational factor = new_row[basis_[r]];
      if (factor.is_zero()) continue;
      for (const Ent& e : mat_[r]) new_row[e.col].sub_mul(factor, e.val);
      new_rhs.sub_mul(factor, rhs_[r]);
    }
    SparseRow compressed;
    for (std::size_t c = 0; c < cols_; ++c) {
      if (new_row[c].is_zero()) continue;
      compressed.push_back({c, std::move(new_row[c])});
      col_rows_.push(c, m_);
    }
    mat_.push_back(std::move(compressed));
    rhs_.push_back(std::move(new_rhs));
    basis_.push_back(slack_col);
    row_seen_.push_back(0);
    ++m_;
    return dual();
  }

  LpSolution extract() const {
    LpSolution s;
    s.status = LpSolution::Status::optimal;
    s.values.assign(n_, Rational(0));
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < n_) s.values[basis_[r]] = rhs_[r];
    }
    s.objective = Rational(0);
    for (std::size_t j = 0; j < n_; ++j) {
      if (!objective_[j].is_zero()) s.objective += objective_[j] * s.values[j];
    }
    s.tableau_rows = m_;
    s.tableau_cols = cols_;
    for (std::size_t r = 0; r < m_; ++r) s.tableau_nnz += mat_[r].size();
    return s;
  }

private:
  Status primal(bool allow_artificials) {
    // Pricing heap: a lazy max-heap of (reduced cost, column), largest
    // cost first and ties to the lowest column. A pivot changes reduced
    // costs only at the pivot row's columns, so after it only those get
    // a new stamp and, when positive, a fresh entry; an entry whose
    // stamp is out of date is dropped when it surfaces. The entries with
    // a current stamp are therefore exactly the allowed columns with a
    // positive reduced cost, each at its current cost, and the top is
    // the column a full Dantzig scan in ascending column order picks.
    const auto allowed = [&](std::size_t c) { return allow_artificials || !is_artificial_[c]; };
    struct Priced {
      Rational cost;
      std::size_t col = 0;
      std::uint32_t stamp = 0;
    };
    const auto lower = [](const Priced& a, const Priced& b) {
      return a.cost < b.cost || (a.cost == b.cost && a.col > b.col);
    };
    std::vector<Priced> heap;
    std::vector<std::uint32_t> stamp(cols_, 0);
    const auto current = [&](const Priced& p) { return p.stamp == stamp[p.col]; };
    for (std::size_t c = 0; c < cols_; ++c) {
      if (allowed(c) && obj_[c].is_positive()) heap.push_back({obj_[c], c, 0});
    }
    std::make_heap(heap.begin(), heap.end(), lower);
    const auto reprice = [&](std::size_t c) {
      ++stamp[c];
      if (!allowed(c) || !obj_[c].is_positive()) return;
      heap.push_back({obj_[c], c, stamp[c]});
      std::push_heap(heap.begin(), heap.end(), lower);
    };

    int degenerate_streak = 0;
    for (;;) {
      if (pivots_exhausted()) return Status::pivot_limit;
      // Entering column: Dantzig's rule (largest reduced cost) while
      // progress is healthy, Bland's rule (first eligible) after a
      // degenerate streak — Bland cannot cycle, so termination holds.
      // Ties go to the lowest column index under both rules, as in an
      // ascending scan over every column. Bland's pick is rare enough
      // to scan the heap for, dropping its out-of-date entries first.
      std::size_t enter = cols_;
      if (degenerate_streak < k_bland_switch) {
        while (!heap.empty() && !current(heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), lower);
          heap.pop_back();
        }
        if (!heap.empty()) enter = heap.front().col;
      } else {
        heap.erase(std::remove_if(heap.begin(), heap.end(),
                                  [&](const Priced& p) { return !current(p); }),
                   heap.end());
        std::make_heap(heap.begin(), heap.end(), lower);
        for (const Priced& p : heap) enter = std::min(enter, p.col);
      }
      if (enter == cols_) return Status::optimal;

      // Ratio test over the rows holding the entering column: the row
      // with the smallest rhs/coefficient ratio leaves, ties break
      // towards the smallest basic variable (Bland). That minimum is
      // unique, so the order of the gathered rows cannot change it.
      collect(enter);
      std::size_t leave = m_;
      Rational best_ratio;
      for (const auto& [r, a] : cand_) {
        if (!a.is_positive()) continue;
        // 0/a == 0 exactly; degenerate rows dominate flow systems, so
        // skipping the rational division there is a real saving.
        const Rational ratio = rhs_[r].is_zero() ? Rational(0) : rhs_[r] / a;
        if (leave == m_ || ratio < best_ratio ||
            (ratio == best_ratio && basis_[r] < basis_[leave])) {
          leave = r;
          best_ratio = ratio;
        }
      }
      if (leave == m_) return Status::unbounded;
      degenerate_streak = best_ratio.is_zero() ? degenerate_streak + 1 : 0;
      eliminate(leave, enter);
      finish_pivot(leave, enter);
      for (const Ent& e : mat_[leave]) reprice(e.col);
    }
  }

  // Dual simplex: restores primal feasibility (negative rhs entries)
  // while keeping the objective row dual-feasible. Used after warm-start
  // row additions.
  Status dual() {
    const std::size_t iteration_limit = 4 * (m_ + cols_) + 100;
    for (std::size_t iter = 0; iter < iteration_limit; ++iter) {
      // Pivot exhaustion reuses the stall path: the caller falls back to
      // a cold solve, which immediately reports pivot_limit itself (the
      // counter is shared), so no pivots are wasted re-discovering it.
      if (pivots_exhausted()) return Status::stalled;
      // Leaving row: most negative rhs (ties to the smallest row).
      std::size_t leave = m_;
      for (std::size_t r = 0; r < m_; ++r) {
        if (!rhs_[r].is_negative()) continue;
        if (leave == m_ || rhs_[r] < rhs_[leave]) leave = r;
      }
      if (leave == m_) return Status::optimal;

      // Entering column: minimize obj_c / a_c over negative pivot-row
      // entries (both numerator and denominator are <= 0, so the ratio
      // is >= 0); ties break towards the smallest column index — the
      // sparse row's entries ascend, matching the former dense scan.
      std::size_t enter = cols_;
      Rational best_num, best_den; // compare obj_e/a_e < obj_c/a_c cross-multiplied
      for (const Ent& e : mat_[leave]) {
        if (is_artificial_[e.col]) continue;
        const Rational& a = e.val;
        if (!a.is_negative()) continue;
        if (enter == cols_) {
          enter = e.col;
          best_num = obj_[e.col];
          best_den = a;
          continue;
        }
        // obj_c / a_c < obj_e / a_e  <=>  obj_c * a_e < obj_e * a_c
        // (multiplying by the negative denominators flips twice).
        if (obj_[e.col] * best_den < best_num * a) {
          enter = e.col;
          best_num = obj_[e.col];
          best_den = a;
        }
      }
      if (enter == cols_) return Status::infeasible; // no way to repair the row
      pivot(leave, enter);
    }
    return Status::stalled;
  }

  // Binary search for a row's entry at `col`; null when the cell is a
  // structural zero.
  static const Rational* find_coeff(const SparseRow& row, std::size_t col) {
    const auto it = std::lower_bound(
        row.begin(), row.end(), col,
        [](const Ent& e, std::size_t c) { return e.col < c; });
    return (it != row.end() && it->col == col) ? &it->val : nullptr;
  }

  // Gathers into cand_ every row with a nonzero entry in `col`, paired
  // with that entry, and compacts the column's row list on the way: a
  // row whose entry is absent (scrubbed by a splice or by the artificial
  // purge) is dropped, and so is a repeat. A stored zero keeps its row
  // listed, because an in-place row update can make it nonzero again
  // without touching the index.
  void collect(std::size_t col) {
    cand_.clear();
    ++epoch_;
    const std::span<std::uint32_t> rows = col_rows_.rows(col);
    std::size_t kept = 0;
    for (const std::uint32_t r : rows) {
      if (row_seen_[r] == epoch_) continue;
      const Rational* a = find_coeff(mat_[r], col);
      if (a == nullptr) continue;
      row_seen_[r] = epoch_;
      rows[kept++] = r;
      if (!a->is_zero()) cand_.push_back({r, *a});
    }
    col_rows_.truncate(col, kept);
  }

  // row -= factor * prow. When every pivot-row column is already stored
  // in the row (the common case once fill-in stabilizes), the update is
  // in place: nnz(prow) galloping lookups and sub_muls, no copying —
  // the same work the dense update did. Cells that cancel to exact zero
  // then simply stay stored, like a dense cell holding zero. Only when
  // the pivot row introduces new columns is the row rebuilt by one
  // sorted merge, which also scrubs the stored zeros again — simplex on
  // flow-conservation systems cancels constantly, and that scrub is
  // what keeps the tableau sparse across pivots. A stored zero and an
  // absent entry are indistinguishable to every pivot rule (each tests
  // values, never presence), so the arithmetic and the pivot sequence
  // stay bit-identical with the former dense tableau.
  void row_sub_scaled(std::size_t r, const Rational& factor, const SparseRow& prow) {
    SparseRow& row = mat_[r];
    std::size_t missing = 0;
    {
      auto it = row.begin();
      for (const Ent& pe : prow) {
        it = std::lower_bound(it, row.end(), pe.col,
                              [](const Ent& e, std::size_t c) { return e.col < c; });
        if (it != row.end() && it->col == pe.col) {
          it->val.sub_mul(factor, pe.val);
          ++it;
        } else {
          ++missing;
        }
      }
    }
    if (missing == 0) return;

    // Splice the new columns in; shared columns were updated above.
    scratch_.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < row.size() || j < prow.size()) {
      if (j == prow.size() || (i < row.size() && row[i].col < prow[j].col)) {
        if (!row[i].val.is_zero()) scratch_.push_back(std::move(row[i]));
        ++i;
      } else if (i == row.size() || prow[j].col < row[i].col) {
        Rational v(0);
        v.sub_mul(factor, prow[j].val);
        if (!v.is_zero()) {
          scratch_.push_back({prow[j].col, std::move(v)});
          col_rows_.push(prow[j].col, r); // fill-in
        }
        ++j;
      } else {
        if (!row[i].val.is_zero()) scratch_.push_back(std::move(row[i]));
        ++i;
        ++j;
      }
    }
    // Copy back rather than swap: the row keeps its own buffer (grown
    // with headroom when the merge outgrew it) and scratch_ its large
    // one, so a splice rarely allocates.
    if (row.capacity() < scratch_.size()) row.reserve(2 * scratch_.size());
    row.assign(scratch_.begin(), scratch_.end());
  }

  // The row arithmetic of a pivot on (pr, pc), over the rows collect(pc)
  // gathered: scale the pivot row to a unit pivot cell, then clear the
  // column from every other gathered row. Each row update reads only the
  // pivot row, so the gathering order does not matter.
  void eliminate(std::size_t pr, std::size_t pc) {
    const auto self = std::find_if(cand_.begin(), cand_.end(),
                                   [&](const auto& cand) { return cand.first == pr; });
    WCET_CHECK(self != cand_.end(), "pivot on a zero tableau cell");
    SparseRow& prow = mat_[pr];
    if (self->second != Rational(1)) { // a unit pivot cell scales nothing
      const Rational inv = Rational(1) / self->second;
      for (Ent& e : prow) e.val *= inv;
      rhs_[pr] *= inv;
    }
    for (const auto& [r, factor] : cand_) {
      if (r == pr) continue;
      row_sub_scaled(r, factor, prow);
      rhs_[r].sub_mul(factor, rhs_[pr]);
    }
    basis_[pr] = pc;
  }

  // Constructor-time basis installation: the row arithmetic of pivot(),
  // but no objective-row update (nothing is priced yet) and no pivot
  // counter charge — the pivot cell is named by the crash-basis hint,
  // not searched for.
  void crash_eliminate(std::size_t pr, std::size_t pc) {
    collect(pc);
    eliminate(pr, pc);
  }

  void pivot(std::size_t pr, std::size_t pc) {
    collect(pc);
    eliminate(pr, pc);
    finish_pivot(pr, pc);
  }

  bool pivots_exhausted() const {
    return pivot_limit_ != 0 && pivot_count_ != nullptr && *pivot_count_ >= pivot_limit_;
  }

  void finish_pivot(std::size_t pr, std::size_t pc) {
    if (pivot_count_ != nullptr) {
      ++*pivot_count_;
      if (governor_ != nullptr && (*pivot_count_ & 63u) == 0) governor_->check_cancel();
    }
    const Rational factor = obj_[pc];
    if (!factor.is_zero()) {
      for (const Ent& e : mat_[pr]) obj_[e.col].sub_mul(factor, e.val);
      obj_rhs_.sub_mul(factor, rhs_[pr]);
    }
  }

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t cols_ = 0;
  std::size_t num_art_ = 0;
  const AnalysisGovernor* governor_ = nullptr;
  std::uint64_t* pivot_count_ = nullptr; // shared across warm-start clones
  std::uint64_t pivot_limit_ = 0;        // 0 = unlimited
  std::uint64_t* phase1_pivots_ = nullptr; // phase-1 share of pivot_count_
  std::size_t crash_rows_ = 0;             // hinted rows installed at construction
  std::vector<Rational> objective_; // structural objective coefficients
  std::vector<SparseRow> mat_;
  std::vector<Rational> rhs_;
  std::vector<Rational> obj_; // reduced-cost row (dense: one row)
  Rational obj_rhs_;
  std::vector<std::size_t> basis_;
  std::vector<bool> is_artificial_;
  SparseRow scratch_; // merge target recycled across pivots
  // Column index: per column, the rows that may store an entry there (a
  // superset; see collect()), and the per-row stamps collect() uses to
  // drop repeats.
  ColumnIndex col_rows_;
  std::vector<std::uint64_t> row_seen_;
  std::uint64_t epoch_ = 0;
  std::vector<std::pair<std::size_t, Rational>> cand_; // rows gathered by collect()
};

LpSolution status_only(LpSolution::Status status) {
  LpSolution s;
  s.status = status;
  return s;
}

// Branch & bound from a primal-optimal root tableau, best-bound order
// with ceil-first diving. After branching, the ceil child is *dived*
// immediately: its single branch row is appended to the live parent
// tableau and re-optimized with the dual simplex — one row, one warm
// re-solve per dive step. Floor siblings go onto the best-bound queue;
// when popped they rebuild warm from a copy of the root-optimal tableau
// by replaying their branch-row path (still dual re-solves, never
// two-phase-from-scratch). `cold` re-solves a node's relaxation from
// scratch under the same objective as `root` (stall fallback).
//
// Resource exhaustion (node or pivot limit) never silently returns the
// incumbent as `optimal`: every subtree truncated by a limit donates
// its tightest known relaxation bound to a frontier maximum, and the
// result is a `degraded` solution whose objective is a *proven* upper
// bound on the true optimum — max(incumbent, truncated subtree bounds,
// remaining open-node bounds). Sound for both senses: for the
// alternate (negated, minimizing) objective an upper bound on -cost is
// a lower bound on cost.
template <typename ColdSolve>
LpSolution branch_and_bound(Simplex& root, const LpSolution& root_solution, int num_variables,
                            const SolveLimits& limits, const ColdSolve& cold) {
  using Row = IlpProblem::Row;
  struct Node {
    std::vector<Row> extra; // branch rows on the path from the root
    Rational bound;         // parent relaxation objective (upper bound)
    std::uint64_t seq = 0;  // FIFO tie-break
  };
  const auto worse = [](const Node& a, const Node& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.seq > b.seq;
  };
  std::priority_queue<Node, std::vector<Node>, decltype(worse)> open(worse);
  std::uint64_t seq = 0;
  open.push(Node{{}, root_solution.objective, seq++});

  LpSolution best = status_only(LpSolution::Status::infeasible);
  const int node_limit = limits.node_limit;
  int nodes_used = 0;
  bool hit_limit = false;
  // Tightest upper bound covering every subtree a limit truncated.
  std::optional<Rational> truncated;
  const auto note_truncated = [&](const Rational& bound) {
    if (!truncated || *truncated < bound) truncated = bound;
  };

  const auto first_fractional = [&](const LpSolution& s) {
    for (int j = 0; j < num_variables; ++j) {
      if (!s.values[static_cast<std::size_t>(j)].is_integer()) return j;
    }
    return -1;
  };

  while (!open.empty() && !hit_limit) {
    Node node = open.top();
    open.pop();
    if (best.ok() && node.bound <= best.objective) continue; // bound
    if (nodes_used >= node_limit) {
      hit_limit = true;
      note_truncated(node.bound);
      break;
    }
    if (limits.governor != nullptr) limits.governor->check_cancel();
    WCET_FAULT_POINT("bnb:node");
    ++nodes_used;
    // Tightest proven bound for the subtree under exploration; refined
    // every time a relaxation solves, charged to the frontier whenever
    // a limit cuts the subtree off.
    Rational subtree_bound = node.bound;

    // Rebuild this node's relaxation warm from the root tableau. The
    // copy is lazy: the root node itself (empty path — the common
    // no-branching case) reuses the stored root solution and only
    // materializes a tableau copy if it actually has to dive.
    LpSolution relax;
    std::optional<Simplex> warm;
    bool warm_live = true; // false once the live tableau diverged from `relax`
    if (node.extra.empty()) {
      relax = root_solution;
    } else {
      warm = root;
      Simplex::Status status = Simplex::Status::optimal;
      for (const Row& row : node.extra) {
        status = warm->reoptimize_with_row(row);
        if (status != Simplex::Status::optimal) break;
      }
      switch (status) {
      case Simplex::Status::optimal: relax = warm->extract(); break;
      case Simplex::Status::infeasible: continue;
      case Simplex::Status::unbounded: return status_only(LpSolution::Status::unbounded);
      case Simplex::Status::stalled:
      case Simplex::Status::pivot_limit:
        // Dual iteration hit its safety limit: fall back to an exact
        // cold solve; the live tableau is no longer usable for diving.
        // (With an exhausted pivot budget the cold solve reports
        // pivot_limit right away; the dive loop charges the frontier.)
        relax = cold(node.extra);
        warm_live = false;
        break;
      }
    }

    // Dive: follow ceil branches on the live tableau while profitable,
    // queueing each floor sibling for best-bound exploration.
    for (;;) {
      if (relax.status == LpSolution::Status::unbounded) return relax;
      if (relax.status == LpSolution::Status::pivot_limit) {
        // Ran out of pivots inside this subtree: its tightest known
        // relaxation bound stands in for everything unexplored below.
        hit_limit = true;
        note_truncated(subtree_bound);
        break;
      }
      if (!relax.ok()) break;
      subtree_bound = relax.objective;
      if (best.ok() && relax.objective <= best.objective) break; // bound
      const int frac_var = first_fractional(relax);
      if (frac_var < 0) {
        best = std::move(relax); // improved integral incumbent
        break;
      }
      const Rational v = relax.values[static_cast<std::size_t>(frac_var)];
      const Row up{{{frac_var, Rational(1)}}, Cmp::ge, Rational(v.ceil64())};
      const Row down{{{frac_var, Rational(1)}}, Cmp::le, Rational(v.floor64())};
      Node sibling{node.extra, relax.objective, seq++};
      sibling.extra.push_back(down);
      open.push(std::move(sibling));
      node.extra.push_back(up);
      if (!warm_live) {
        // No live tableau to extend: queue the ceil child instead.
        open.push(Node{std::move(node.extra), relax.objective, seq++});
        break;
      }
      if (nodes_used >= node_limit) {
        hit_limit = true;
        // The ceil child is unexplored; its parent relaxation bounds it
        // (the floor sibling is already on the open queue).
        note_truncated(subtree_bound);
        break;
      }
      if (limits.governor != nullptr) limits.governor->check_cancel();
      WCET_FAULT_POINT("bnb:node");
      ++nodes_used;
      if (!warm) warm = root; // first dive from the root node's own path
      const Simplex::Status status = warm->reoptimize_with_row(up);
      if (status == Simplex::Status::infeasible) break;
      if (status == Simplex::Status::unbounded) return status_only(LpSolution::Status::unbounded);
      if (status == Simplex::Status::stalled || status == Simplex::Status::pivot_limit) {
        relax = cold(node.extra);
        warm_live = false;
        continue;
      }
      relax = warm->extract();
    }
  }

  best.nodes_used = nodes_used;
  if (!hit_limit) return best;

  // A limit fired. Fold the remaining open frontier into the truncation
  // bound; if nothing unexplored can beat the incumbent, the incumbent
  // is in fact proven optimal and the limit was harmless.
  while (!open.empty()) {
    note_truncated(open.top().bound);
    open.pop();
  }
  if (best.ok() && (!truncated || *truncated <= best.objective)) return best;
  if (!best.ok() && !truncated) {
    // No incumbent and no truncated subtree bound: nothing provable.
    return status_only(LpSolution::Status::node_limit);
  }
  LpSolution out = status_only(LpSolution::Status::degraded);
  out.nodes_used = nodes_used;
  out.objective = best.ok() && *truncated < best.objective ? best.objective : *truncated;
  return out;
}

} // namespace

LpSolution IlpProblem::solve_lp() const { return solve_lp_with({}, objective_); }

LpSolution IlpProblem::solve_lp_with(const std::vector<Row>& extra,
                                     const std::vector<Rational>& objective,
                                     const SolveLimits* limits, std::uint64_t* pivots,
                                     std::uint64_t* phase1_pivots) const {
  // The crash basis only seeds branch-row-free systems: an appended
  // branch bound may be violated by the crash solution, so cold
  // re-solves inside branch & bound run the ordinary two-phase method.
  const bool crash = !basis_hint_.empty() && extra.empty();
  // Count pivots even when the caller brought no shared counter, so
  // every solve reports its phase split.
  std::uint64_t local_pivots = 0;
  std::uint64_t local_phase1 = 0;
  if (pivots == nullptr) pivots = &local_pivots;
  if (phase1_pivots == nullptr) phase1_pivots = &local_phase1;
  Simplex simplex(static_cast<std::size_t>(num_variables()), rows_, extra, objective,
                  crash ? &basis_hint_ : nullptr);
  simplex.set_limits(limits != nullptr ? limits->governor : nullptr, pivots,
                     limits != nullptr ? limits->pivot_limit : 0, phase1_pivots);
  const auto finish = [&](LpSolution s) {
    s.pivots_used = *pivots;
    s.phase1_pivots = *phase1_pivots;
    s.phase2_pivots = *pivots - *phase1_pivots;
    s.crash_basis_rows = simplex.crash_rows();
    return s;
  };
  switch (simplex.solve()) {
  case Simplex::Status::optimal: return finish(simplex.extract());
  case Simplex::Status::infeasible: return finish(status_only(LpSolution::Status::infeasible));
  case Simplex::Status::unbounded: return finish(status_only(LpSolution::Status::unbounded));
  case Simplex::Status::pivot_limit:
    return finish(status_only(LpSolution::Status::pivot_limit));
  case Simplex::Status::stalled: break; // unreachable: primal never stalls
  }
  WCET_CHECK(false, "simplex returned an impossible status");
  return status_only(LpSolution::Status::infeasible);
}

LpSolution IlpProblem::solve_ilp(int node_limit) const {
  SolveLimits limits;
  limits.node_limit = node_limit;
  return solve_ilp(limits);
}

LpSolution IlpProblem::solve_ilp(const SolveLimits& limits) const {
  WCET_FAULT_POINT("ilp:solve");
  // Root relaxation solved cold (two-phase, or straight into phase 2
  // off a crash basis), then branch & bound. The pivot budget is
  // charged to one counter shared by the root tableau, every
  // warm-start clone, and every cold fallback of this solve; the
  // phase-1 accumulator collects the feasibility share across all of
  // them.
  std::uint64_t pivots = 0;
  std::uint64_t phase1_pivots = 0;
  const auto n = static_cast<std::size_t>(num_variables());
  Simplex root(n, rows_, {}, objective_, basis_hint_.empty() ? nullptr : &basis_hint_);
  root.set_limits(limits.governor, &pivots, limits.pivot_limit, &phase1_pivots);
  const auto finish = [&](LpSolution s) {
    s.pivots_used = pivots;
    s.phase1_pivots = phase1_pivots;
    s.phase2_pivots = pivots - phase1_pivots;
    s.crash_basis_rows = root.crash_rows();
    return s;
  };
  switch (root.solve()) {
  case Simplex::Status::optimal: break;
  case Simplex::Status::infeasible: return finish(status_only(LpSolution::Status::infeasible));
  case Simplex::Status::unbounded: return finish(status_only(LpSolution::Status::unbounded));
  case Simplex::Status::pivot_limit:
    // The root relaxation never finished: no bound of any kind exists.
    return finish(status_only(LpSolution::Status::pivot_limit));
  case Simplex::Status::stalled: WCET_CHECK(false, "primal simplex cannot stall");
  }
  const LpSolution root_solution = root.extract();
  return finish(branch_and_bound(root, root_solution, num_variables(), limits,
                                 [&](const std::vector<Row>& extra) {
                                   return solve_lp_with(extra, objective_, &limits, &pivots,
                                                        &phase1_pivots);
                                 }));
}

std::pair<LpSolution, LpSolution>
IlpProblem::solve_ilp_pair(const std::vector<Rational>& alt_objective, int node_limit) const {
  SolveLimits limits;
  limits.node_limit = node_limit;
  return solve_ilp_pair(alt_objective, limits);
}

std::pair<LpSolution, LpSolution>
IlpProblem::solve_ilp_pair(const std::vector<Rational>& alt_objective,
                           const SolveLimits& limits) const {
  WCET_CHECK(alt_objective.size() == objective_.size(),
             "alternate objective must cover every variable");
  WCET_FAULT_POINT("ilp:solve");
  // One pivot budget covers the whole pair (shared phase 1 plus both
  // senses): the pair is one solve from the caller's point of view.
  std::uint64_t pivots = 0;
  std::uint64_t phase1_pivots = 0;
  const auto n = static_cast<std::size_t>(num_variables());
  Simplex base(n, rows_, {}, objective_, basis_hint_.empty() ? nullptr : &basis_hint_);
  base.set_limits(limits.governor, &pivots, limits.pivot_limit, &phase1_pivots);
  const Simplex::Status feasible = base.phase1();
  if (feasible == Simplex::Status::infeasible) {
    return {status_only(LpSolution::Status::infeasible),
            status_only(LpSolution::Status::infeasible)};
  }
  if (feasible == Simplex::Status::pivot_limit) {
    return {status_only(LpSolution::Status::pivot_limit),
            status_only(LpSolution::Status::pivot_limit)};
  }
  // Snapshot the feasible basis before either phase 2 reshapes it; the
  // alternate sense restarts from here instead of repeating phase 1.
  Simplex alt = base;
  alt.install_objective(alt_objective);

  const auto run = [&](Simplex& root, const std::vector<Rational>& objective) -> LpSolution {
    switch (root.phase2()) {
    case Simplex::Status::optimal: break;
    case Simplex::Status::infeasible: return status_only(LpSolution::Status::infeasible);
    case Simplex::Status::unbounded: return status_only(LpSolution::Status::unbounded);
    case Simplex::Status::pivot_limit: return status_only(LpSolution::Status::pivot_limit);
    case Simplex::Status::stalled: WCET_CHECK(false, "primal simplex cannot stall");
    }
    const LpSolution root_solution = root.extract();
    return branch_and_bound(root, root_solution, num_variables(), limits,
                            [&](const std::vector<Row>& extra) {
                              return solve_lp_with(extra, objective, &limits, &pivots,
                                                   &phase1_pivots);
                            });
  };
  LpSolution primary = run(base, objective_);
  LpSolution alternate = run(alt, alt_objective);
  primary.pivots_used = pivots;
  alternate.pivots_used = pivots;
  primary.phase1_pivots = phase1_pivots;
  alternate.phase1_pivots = phase1_pivots;
  primary.phase2_pivots = pivots - phase1_pivots;
  alternate.phase2_pivots = pivots - phase1_pivots;
  primary.crash_basis_rows = base.crash_rows();
  alternate.crash_basis_rows = base.crash_rows();
  return {primary, alternate};
}

} // namespace wcet
