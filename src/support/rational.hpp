// Exact rational arithmetic on 128-bit integers, used by the simplex
// solver in path analysis. Overflow is detected and reported via
// AnalysisError rather than silently wrapping: an unsound WCET bound is
// worse than no bound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace wcet {

class Rational {
public:
  constexpr Rational() = default;
  Rational(std::int64_t value) : num_(value), den_(1) {} // NOLINT: implicit by design
  Rational(std::int64_t num, std::int64_t den);

  static Rational from_int128(__int128 num, __int128 den);

  bool is_zero() const { return num_ == 0; }
  bool is_integer() const { return den_ == 1; }
  bool is_negative() const { return num_ < 0; }
  bool is_positive() const { return num_ > 0; }

  std::int64_t floor64() const;
  std::int64_t ceil64() const;

  Rational operator-() const;
  Rational operator+(const Rational& rhs) const;
  Rational operator-(const Rational& rhs) const;
  Rational operator*(const Rational& rhs) const;
  Rational operator/(const Rational& rhs) const;
  // Fused `*this -= a * b` with a single deferred normalization — the
  // hot operation of the simplex pivot.
  void sub_mul(const Rational& a, const Rational& b);
  Rational& operator+=(const Rational& rhs) { return *this = *this + rhs; }
  Rational& operator-=(const Rational& rhs) { return *this = *this - rhs; }
  Rational& operator*=(const Rational& rhs) { return *this = *this * rhs; }
  Rational& operator/=(const Rational& rhs) { return *this = *this / rhs; }

  bool operator==(const Rational& rhs) const { return num_ == rhs.num_ && den_ == rhs.den_; }
  bool operator!=(const Rational& rhs) const { return !(*this == rhs); }
  bool operator<(const Rational& rhs) const;
  bool operator<=(const Rational& rhs) const;
  bool operator>(const Rational& rhs) const { return rhs < *this; }
  bool operator>=(const Rational& rhs) const { return rhs <= *this; }

  std::string to_string() const;

private:
  void normalize();
  static void check_magnitude(__int128 v);

  __int128 num_ = 0;
  __int128 den_ = 1; // always > 0
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

} // namespace wcet
