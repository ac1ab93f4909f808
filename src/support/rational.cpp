#include "support/rational.hpp"

#include <ostream>

#include "support/diag.hpp"

namespace wcet {

namespace {

__int128 abs128(__int128 v) { return v < 0 ? -v : v; }

int ctz128(unsigned __int128 v) {
  const auto lo = static_cast<std::uint64_t>(v);
  if (lo != 0) return __builtin_ctzll(lo);
  return 64 + __builtin_ctzll(static_cast<std::uint64_t>(v >> 64));
}

// Binary (Stein) gcd: avoids the libgcc 128-bit division in the hot
// simplex pivot path.
__int128 gcd128(__int128 a, __int128 b) {
  auto ua = static_cast<unsigned __int128>(abs128(a));
  auto ub = static_cast<unsigned __int128>(abs128(b));
  if (ua == 0) return static_cast<__int128>(ub);
  if (ub == 0) return static_cast<__int128>(ua);
  const int za = ctz128(ua);
  const int zb = ctz128(ub);
  const int shift = za < zb ? za : zb;
  ua >>= za;
  for (;;) {
    ub >>= ctz128(ub);
    if (ua > ub) {
      const unsigned __int128 t = ua;
      ua = ub;
      ub = t;
    }
    ub -= ua;
    if (ub == 0) return static_cast<__int128>(ua << shift);
  }
}

} // namespace

// Reduces num/den (den != 0) in 128 bits, guards both parts and only
// then narrows them.
Rational Rational::reduced(__int128 num, __int128 den) {
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (num == 0) return Rational(0);
  if (den != 1) {
    const __int128 g = gcd128(num, den);
    if (g != 1) {
      num /= g;
      den /= g;
    }
  }
  return from_reduced(num, den);
}

void Rational::overflow() {
  throw AnalysisError("rational arithmetic overflow in path analysis");
}

Rational Rational::from_reduced(__int128 num, __int128 den) {
  check_magnitude(num);
  check_magnitude(den);
  Rational r;
  r.num_ = static_cast<std::int64_t>(num);
  r.den_ = static_cast<std::int64_t>(den);
  return r;
}

Rational::Rational(std::int64_t num, std::int64_t den) {
  WCET_CHECK(den != 0, "rational with zero denominator");
  *this = reduced(num, den);
}

Rational Rational::from_int128(__int128 num, __int128 den) {
  WCET_CHECK(den != 0, "rational with zero denominator");
  return reduced(num, den);
}

// den_ > 0, so neither division below can overflow.
std::int64_t Rational::floor64() const {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) --q;
  return q;
}

std::int64_t Rational::ceil64() const {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) ++q;
  return q;
}

Rational Rational::add_slow(const Rational& rhs) const {
  const __int128 n = static_cast<__int128>(num_) * rhs.den_ + static_cast<__int128>(rhs.num_) * den_;
  return reduced(n, static_cast<__int128>(den_) * rhs.den_);
}

Rational Rational::sub_slow(const Rational& rhs) const {
  const __int128 n = static_cast<__int128>(num_) * rhs.den_ - static_cast<__int128>(rhs.num_) * den_;
  return reduced(n, static_cast<__int128>(den_) * rhs.den_);
}

// Fused `*this -= a * b` off the integer path: the product is
// cross-reduced as in mul_slow and must re-enter the guard band before
// the combining multiplies, so they cannot wrap __int128; the result is
// normalized once at the end.
void Rational::sub_mul_slow(const Rational& a, const Rational& b) {
  const __int128 g1 = gcd128(a.num_, b.den_);
  const __int128 g2 = gcd128(b.num_, a.den_);
  const __int128 pn = (a.num_ / g1) * (b.num_ / g2);
  const __int128 pd = (a.den_ / g2) * (b.den_ / g1);
  check_magnitude(pn);
  check_magnitude(pd);
  if (den_ == pd) {
    *this = reduced(num_ - pn, pd);
    return;
  }
  *this = reduced(num_ * pd - pn * den_, den_ * pd);
}

// Cross-reduce before multiplying: two reduced fractions then give an
// already reduced product, so no gcd of the wide result is needed.
// Neither gcd is zero: each takes a positive denominator.
Rational Rational::mul_slow(const Rational& rhs) const {
  const __int128 g1 = gcd128(num_, rhs.den_);
  const __int128 g2 = gcd128(rhs.num_, den_);
  return from_reduced((num_ / g1) * (rhs.num_ / g2), (den_ / g2) * (rhs.den_ / g1));
}

Rational Rational::div_slow(const Rational& rhs) const {
  WCET_CHECK(rhs.num_ != 0, "rational division by zero");
  return *this * from_int128(rhs.den_, rhs.num_);
}

std::string Rational::to_string() const {
  std::string out = std::to_string(num_);
  if (den_ != 1) {
    out += '/';
    out += std::to_string(den_);
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

} // namespace wcet
