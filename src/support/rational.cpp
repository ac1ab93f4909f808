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

// Guard band: keep magnitudes well below the 128-bit limit so that a
// single multiply in the next operation cannot wrap.
constexpr __int128 k_magnitude_limit = static_cast<__int128>(1) << 62;

std::string int128_to_string(__int128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  __int128 a = neg ? -v : v;
  std::string digits;
  while (a > 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(a % 10)));
    a /= 10;
  }
  if (neg) digits.push_back('-');
  return {digits.rbegin(), digits.rend()};
}

} // namespace

void Rational::check_magnitude(__int128 v) {
  if (abs128(v) >= k_magnitude_limit) {
    throw AnalysisError("rational arithmetic overflow in path analysis");
  }
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  WCET_CHECK(den != 0, "rational with zero denominator");
  normalize();
}

Rational Rational::from_int128(__int128 num, __int128 den) {
  WCET_CHECK(den != 0, "rational with zero denominator");
  Rational r;
  r.num_ = num;
  r.den_ = den;
  r.normalize();
  return r;
}

void Rational::normalize() {
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  if (den_ == 1) { // integer fast path: no gcd needed
    check_magnitude(num_);
    return;
  }
  const __int128 g = gcd128(num_, den_);
  if (g != 1) {
    num_ /= g;
    den_ /= g;
  }
  check_magnitude(num_);
  check_magnitude(den_);
}

std::int64_t Rational::floor64() const {
  __int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) --q;
  WCET_CHECK(abs128(q) <= INT64_MAX, "rational floor out of int64 range");
  return static_cast<std::int64_t>(q);
}

std::int64_t Rational::ceil64() const {
  __int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) ++q;
  WCET_CHECK(abs128(q) <= INT64_MAX, "rational ceil out of int64 range");
  return static_cast<std::int64_t>(q);
}

// A reduced fraction stays reduced under negation: no gcd needed.
Rational Rational::operator-() const {
  Rational r = *this;
  r.num_ = -r.num_;
  return r;
}

Rational Rational::operator+(const Rational& rhs) const {
  if (den_ == 1 && rhs.den_ == 1) { // integer fast path
    Rational r;
    r.num_ = num_ + rhs.num_;
    check_magnitude(r.num_);
    return r;
  }
  return from_int128(num_ * rhs.den_ + rhs.num_ * den_, den_ * rhs.den_);
}

Rational Rational::operator-(const Rational& rhs) const {
  if (den_ == 1 && rhs.den_ == 1) { // integer fast path
    Rational r;
    r.num_ = num_ - rhs.num_;
    check_magnitude(r.num_);
    return r;
  }
  return from_int128(num_ * rhs.den_ - rhs.num_ * den_, den_ * rhs.den_);
}

// Fused `*this -= a * b`: the simplex pivot's row update. Normalization
// is deferred to a single pass at the end (the lazy-normalization fast
// path), with an all-integer shortcut that needs no gcd at all.
void Rational::sub_mul(const Rational& a, const Rational& b) {
  if (a.num_ == 0 || b.num_ == 0) return;
  if (den_ == 1 && a.den_ == 1 && b.den_ == 1) {
    num_ -= a.num_ * b.num_;
    check_magnitude(num_);
    return;
  }
  // Cross-reduce the product before combining, as operator* does. The
  // reduced product must re-enter the guard band before the combining
  // multiplies below, or they could wrap __int128 silently.
  const __int128 g1 = gcd128(a.num_, b.den_);
  const __int128 g2 = gcd128(b.num_, a.den_);
  const __int128 pn = (a.num_ / g1) * (b.num_ / g2);
  const __int128 pd = (a.den_ / g2) * (b.den_ / g1);
  check_magnitude(pn);
  check_magnitude(pd);
  if (den_ == pd) {
    num_ -= pn;
    normalize();
    return;
  }
  num_ = num_ * pd - pn * den_;
  den_ *= pd;
  normalize();
}

Rational Rational::operator*(const Rational& rhs) const {
  if (den_ == 1 && rhs.den_ == 1) { // integer fast path
    Rational r;
    r.num_ = num_ * rhs.num_;
    check_magnitude(r.num_);
    return r;
  }
  // Cross-reduce before multiplying to keep magnitudes small.
  const __int128 g1 = gcd128(num_, rhs.den_);
  const __int128 g2 = gcd128(rhs.num_, den_);
  const __int128 n1 = g1 == 0 ? num_ : num_ / g1;
  const __int128 d2 = g1 == 0 ? rhs.den_ : rhs.den_ / g1;
  const __int128 n2 = g2 == 0 ? rhs.num_ : rhs.num_ / g2;
  const __int128 d1 = g2 == 0 ? den_ : den_ / g2;
  return from_int128(n1 * n2, d1 * d2);
}

Rational Rational::operator/(const Rational& rhs) const {
  WCET_CHECK(rhs.num_ != 0, "rational division by zero");
  return *this * from_int128(rhs.den_, rhs.num_);
}

bool Rational::operator<(const Rational& rhs) const {
  if (den_ == 1 && rhs.den_ == 1) return num_ < rhs.num_; // integer fast path
  return num_ * rhs.den_ < rhs.num_ * den_;
}

bool Rational::operator<=(const Rational& rhs) const {
  if (den_ == 1 && rhs.den_ == 1) return num_ <= rhs.num_; // integer fast path
  return num_ * rhs.den_ <= rhs.num_ * den_;
}

std::string Rational::to_string() const {
  if (den_ == 1) return int128_to_string(num_);
  return int128_to_string(num_) + "/" + int128_to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

} // namespace wcet
