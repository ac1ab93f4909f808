// Interval abstract domain over 32-bit machine words.
//
// An Interval denotes a set of 32-bit bit patterns, represented as a
// contiguous range [lo, hi] of their *unsigned* values (0 .. 2^32-1),
// plus an explicit bottom element. Signed operations and comparisons are
// handled by splitting the interval at the signed wrap point 2^31,
// operating on the (at most two) signed sub-ranges, and re-joining.
//
// All transfer functions are sound over-approximations of the concrete
// modulo-2^32 semantics; precision is deliberately lost (to TOP) when a
// result range would straddle a wrap boundary — the standard trade-off
// in binary-level value analysis (cf. Section 3.1 of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

namespace wcet {

// Comparison predicates as they appear in branch conditions.
enum class Pred {
  eq,
  ne,
  lt_s, // signed <
  ge_s, // signed >=
  lt_u, // unsigned <
  ge_u, // unsigned >=
};

Pred negate(Pred p);
Pred swap_operands(Pred p); // predicate q with (a p b) == (b q a)
const char* to_string(Pred p);

class Interval {
public:
  static constexpr std::int64_t word_min = 0;
  static constexpr std::int64_t word_max = 0xFFFFFFFFll;

  // Default-constructed interval is TOP (unknown word).
  constexpr Interval() = default;

  static Interval top() { return Interval(); }
  static Interval bottom() {
    Interval i;
    i.bottom_ = true;
    return i;
  }
  static Interval constant(std::uint32_t value) {
    return Interval(static_cast<std::int64_t>(value), static_cast<std::int64_t>(value));
  }
  // Range of unsigned values, clamped to the word range.
  static Interval from_unsigned(std::int64_t lo, std::int64_t hi) {
    lo = std::max(lo, word_min);
    hi = std::min(hi, word_max);
    if (lo > hi) return bottom();
    return Interval(lo, hi);
  }
  // Range of signed values in [-2^31, 2^31-1]; wrapped into unsigned space.
  static Interval from_signed(std::int64_t lo, std::int64_t hi);
  static Interval boolean() { return from_unsigned(0, 1); }

  bool is_bottom() const { return bottom_; }
  bool is_top() const { return !bottom_ && umin() == word_min && umax() == word_max; }
  bool is_constant() const { return !bottom_ && lo_ == hi_; }
  std::optional<std::uint32_t> as_constant() const;

  // Unsigned bounds (valid only when not bottom).
  std::int64_t umin() const { return lo_; }
  std::int64_t umax() const { return hi_; }
  // Signed bounds of the denoted set (valid only when not bottom).
  std::int64_t smin() const;
  std::int64_t smax() const;

  std::uint64_t size() const; // number of denoted values
  bool contains(std::uint32_t value) const;
  bool includes(const Interval& other) const; // superset-or-equal

  // The lattice operations are inline: the value fixpoint applies them
  // to every register and tracked word of every state it joins.
  bool operator==(const Interval& other) const {
    if (bottom_ || other.bottom_) return bottom_ == other.bottom_;
    return lo_ == other.lo_ && hi_ == other.hi_;
  }
  bool operator!=(const Interval& other) const { return !(*this == other); }

  Interval join(const Interval& other) const {
    if (bottom_) return other;
    if (other.bottom_) return *this;
    return Interval(std::min(umin(), other.umin()), std::max(umax(), other.umax()));
  }
  Interval meet(const Interval& other) const {
    if (bottom_ || other.bottom_) return bottom();
    const std::int64_t lo = std::max(umin(), other.umin());
    const std::int64_t hi = std::min(umax(), other.umax());
    if (lo > hi) return bottom();
    return Interval(lo, hi);
  }
  // True when the two share a value (their meet is not bottom).
  bool overlaps(const Interval& other) const {
    return !bottom_ && !other.bottom_ && umin() <= other.umax() && other.umin() <= umax();
  }
  // Widening with threshold set (word boundaries and small constants).
  Interval widen(const Interval& newer) const;

  // Arithmetic over 32-bit words (modulo semantics, over-approximated).
  Interval add(const Interval& rhs) const;
  Interval sub(const Interval& rhs) const;
  Interval mul(const Interval& rhs) const;
  Interval div_u(const Interval& rhs) const; // unsigned divide; x/0 -> 0 (tiny32 rule)
  Interval rem_u(const Interval& rhs) const; // unsigned remainder; x%0 -> x
  Interval div_s(const Interval& rhs) const;
  Interval rem_s(const Interval& rhs) const;
  Interval mulh_u(const Interval& rhs) const; // high 32 bits of unsigned product
  Interval shl(const Interval& amount) const;
  Interval shr_u(const Interval& amount) const;
  Interval shr_s(const Interval& amount) const;
  Interval bit_and(const Interval& rhs) const;
  Interval bit_or(const Interval& rhs) const;
  Interval bit_xor(const Interval& rhs) const;

  // Result of (this pred rhs) as a boolean interval: {0}, {1} or {0,1}.
  Interval compare(Pred p, const Interval& rhs) const;

  // Refine *this assuming (this pred rhs) holds. Sound: result is a
  // superset of the exact refinement, subset of *this.
  Interval refine(Pred p, const Interval& rhs) const;

  std::string to_string() const;

private:
  // Callers pass bounds inside the word range (0 <= lo <= hi < 2^32).
  constexpr Interval(std::int64_t lo, std::int64_t hi)
      : lo_(static_cast<std::uint32_t>(lo)), hi_(static_cast<std::uint32_t>(hi)) {}

  // Split into at most two intervals whose signed readings are contiguous.
  // Each element is a pair (signed_lo, signed_hi), stored inline: the
  // signed transfers split every operand, so this must not allocate.
  struct SignedParts {
    std::pair<std::int64_t, std::int64_t> parts[2];
    int count = 0;
    const std::pair<std::int64_t, std::int64_t>* begin() const { return parts; }
    const std::pair<std::int64_t, std::int64_t>* end() const { return parts + count; }
  };
  SignedParts signed_parts() const;
  static Interval from_signed_clamped(std::int64_t lo, std::int64_t hi);

  // The bounds are stored as 32-bit words (every arithmetic reads them
  // widened through umin()/umax()): an abstract state is mostly
  // intervals, so their size is the size of the states the fixpoints
  // copy and join.
  std::uint32_t lo_ = 0;
  std::uint32_t hi_ = 0xFFFFFFFFu;
  bool bottom_ = false;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

} // namespace wcet
