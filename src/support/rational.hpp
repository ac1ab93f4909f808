// Exact rational arithmetic, used by the simplex solver in path
// analysis. A value is a reduced fraction of two int64_t (16 bytes, so a
// sparse tableau entry stays small); every intermediate is computed and
// normalized in __int128 and narrowed only after the magnitude guard,
// which keeps numerator and denominator below 2^62, so no product of two
// values can wrap __int128. Leaving the guard band is reported via
// AnalysisError rather than silently wrapping: an unsound WCET bound is
// worse than no bound.
//
// The all-integer cases of the hot operations (compare, +, -, *, the
// fused sub_mul, division by one) and the guard itself are inline here:
// IPET's flow systems pivot almost only on integer tableau cells. Every
// path that needs a gcd stays out of line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace wcet {

class Rational {
public:
  constexpr Rational() = default;
  constexpr Rational(std::int64_t value) : num_(value), den_(1) {} // NOLINT: implicit by design
  Rational(std::int64_t num, std::int64_t den);

  static Rational from_int128(__int128 num, __int128 den);

  bool is_zero() const { return num_ == 0; }
  bool is_integer() const { return den_ == 1; }
  bool is_negative() const { return num_ < 0; }
  bool is_positive() const { return num_ > 0; }

  std::int64_t floor64() const;
  std::int64_t ceil64() const;

  Rational operator-() const {
    // A reduced fraction stays reduced under negation: no gcd needed.
    // Only an unguarded INT64_MIN numerator (from the implicit
    // constructor) has no negation in range.
    if (num_ == INT64_MIN) overflow();
    Rational r = *this;
    r.num_ = -num_;
    return r;
  }
  Rational operator+(const Rational& rhs) const {
    if (den_ == 1 && rhs.den_ == 1) return integer(static_cast<__int128>(num_) + rhs.num_);
    return add_slow(rhs);
  }
  Rational operator-(const Rational& rhs) const {
    if (den_ == 1 && rhs.den_ == 1) return integer(static_cast<__int128>(num_) - rhs.num_);
    return sub_slow(rhs);
  }
  Rational operator*(const Rational& rhs) const {
    if (den_ == 1 && rhs.den_ == 1) return integer(static_cast<__int128>(num_) * rhs.num_);
    return mul_slow(rhs);
  }
  Rational operator/(const Rational& rhs) const {
    if (rhs.den_ == 1 && rhs.num_ == 1) return *this;
    return div_slow(rhs);
  }
  // Fused `*this -= a * b` with a single deferred normalization — the
  // hot operation of the simplex pivot.
  void sub_mul(const Rational& a, const Rational& b) {
    if (a.num_ == 0 || b.num_ == 0) return;
    if (den_ == 1 && a.den_ == 1 && b.den_ == 1) {
      *this = integer(num_ - static_cast<__int128>(a.num_) * b.num_);
      return;
    }
    sub_mul_slow(a, b);
  }
  Rational& operator+=(const Rational& rhs) { return *this = *this + rhs; }
  Rational& operator-=(const Rational& rhs) { return *this = *this - rhs; }
  Rational& operator*=(const Rational& rhs) { return *this = *this * rhs; }
  Rational& operator/=(const Rational& rhs) { return *this = *this / rhs; }

  bool operator==(const Rational& rhs) const { return num_ == rhs.num_ && den_ == rhs.den_; }
  bool operator!=(const Rational& rhs) const { return !(*this == rhs); }
  // Cross products of two int64 fractions always fit in __int128.
  bool operator<(const Rational& rhs) const {
    if (den_ == 1 && rhs.den_ == 1) return num_ < rhs.num_;
    return static_cast<__int128>(num_) * rhs.den_ < static_cast<__int128>(rhs.num_) * den_;
  }
  bool operator<=(const Rational& rhs) const {
    if (den_ == 1 && rhs.den_ == 1) return num_ <= rhs.num_;
    return static_cast<__int128>(num_) * rhs.den_ <= static_cast<__int128>(rhs.num_) * den_;
  }
  bool operator>(const Rational& rhs) const { return rhs < *this; }
  bool operator>=(const Rational& rhs) const { return rhs <= *this; }

  std::string to_string() const;

private:
  // Guard band: magnitudes stay below 2^62 (see the file comment).
  static constexpr __int128 k_magnitude_limit = static_cast<__int128>(1) << 62;

  static void check_magnitude(__int128 v) {
    if (v >= k_magnitude_limit || v <= -k_magnitude_limit) overflow();
  }
  [[noreturn]] static void overflow();
  static Rational integer(__int128 v) {
    check_magnitude(v);
    Rational r;
    r.num_ = static_cast<std::int64_t>(v);
    return r;
  }
  static Rational reduced(__int128 num, __int128 den);
  // Guards and narrows an already reduced fraction (den > 0).
  static Rational from_reduced(__int128 num, __int128 den);
  Rational add_slow(const Rational& rhs) const;
  Rational sub_slow(const Rational& rhs) const;
  Rational mul_slow(const Rational& rhs) const;
  Rational div_slow(const Rational& rhs) const;
  void sub_mul_slow(const Rational& a, const Rational& b);

  std::int64_t num_ = 0;
  std::int64_t den_ = 1; // always > 0
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

} // namespace wcet
