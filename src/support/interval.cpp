#include "support/interval.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>

#include "support/diag.hpp"

namespace wcet {

namespace {

constexpr std::int64_t k_two32 = 0x100000000ll;
constexpr std::int64_t k_smin = -0x80000000ll;
constexpr std::int64_t k_smax = 0x7FFFFFFFll;

std::int64_t to_signed64(std::int64_t unsigned_value) {
  return unsigned_value >= 0x80000000ll ? unsigned_value - k_two32 : unsigned_value;
}

} // namespace

Pred negate(Pred p) {
  switch (p) {
  case Pred::eq: return Pred::ne;
  case Pred::ne: return Pred::eq;
  case Pred::lt_s: return Pred::ge_s;
  case Pred::ge_s: return Pred::lt_s;
  case Pred::lt_u: return Pred::ge_u;
  case Pred::ge_u: return Pred::lt_u;
  }
  internal_fail(__FILE__, __LINE__, "bad Pred");
}

Pred swap_operands(Pred p) {
  switch (p) {
  case Pred::eq: return Pred::eq;
  case Pred::ne: return Pred::ne;
  // (a < b) == (b > a) == !(b <= a); we only have lt/ge, so express
  // swapped forms with the complement trick at the call site. Here we
  // return the predicate q such that a p b == b q a for the symmetric
  // ones and document the asymmetric mapping:
  //   a <s b  ==  b >s a  — not directly representable; callers use
  //   refine on both sides instead.
  case Pred::lt_s: return Pred::ge_s; // b >=s a+1 — callers adjust
  case Pred::ge_s: return Pred::lt_s;
  case Pred::lt_u: return Pred::ge_u;
  case Pred::ge_u: return Pred::lt_u;
  }
  internal_fail(__FILE__, __LINE__, "bad Pred");
}

const char* to_string(Pred p) {
  switch (p) {
  case Pred::eq: return "==";
  case Pred::ne: return "!=";
  case Pred::lt_s: return "<s";
  case Pred::ge_s: return ">=s";
  case Pred::lt_u: return "<u";
  case Pred::ge_u: return ">=u";
  }
  return "?";
}

Interval Interval::from_signed(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) return bottom();
  lo = std::max(lo, k_smin);
  hi = std::min(hi, k_smax);
  if (lo > hi) return bottom();
  if (lo >= 0) return Interval(lo, hi);
  if (hi < 0) return Interval(lo + k_two32, hi + k_two32);
  // Crosses zero: negative part wraps to the top of unsigned space, so
  // the union is not contiguous; over-approximate by the full hull that
  // covers both parts. [0, hi] ∪ [lo+2^32, 2^32-1] — hull is TOP unless
  // one side touches; keep precision by choosing the smaller hull:
  // contiguous-through-wrap is not representable, so return TOP.
  // Exception: the common case lo.. -1 .. hi with small magnitudes is
  // frequent for loop counters; the hull [0, 2^32-1] is the only sound
  // contiguous cover.
  return top();
}

Interval Interval::from_signed_clamped(std::int64_t lo, std::int64_t hi) {
  return from_signed(std::max(lo, k_smin), std::min(hi, k_smax));
}

std::optional<std::uint32_t> Interval::as_constant() const {
  if (!bottom_ && umin() == umax()) return static_cast<std::uint32_t>(umin());
  return std::nullopt;
}

std::int64_t Interval::smin() const {
  WCET_CHECK(!bottom_, "smin of bottom");
  // If the interval crosses the signed wrap (contains 2^31), the signed
  // minimum is -2^31; otherwise map endpoints.
  if (umin() < 0x80000000ll && umax() >= 0x80000000ll) return k_smin;
  return to_signed64(umin());
}

std::int64_t Interval::smax() const {
  WCET_CHECK(!bottom_, "smax of bottom");
  if (umin() < 0x80000000ll && umax() >= 0x80000000ll) return k_smax;
  return to_signed64(umax());
}

std::uint64_t Interval::size() const {
  if (bottom_) return 0;
  return static_cast<std::uint64_t>(umax() - umin() + 1);
}

bool Interval::contains(std::uint32_t value) const {
  if (bottom_) return false;
  const auto v = static_cast<std::int64_t>(value);
  return umin() <= v && v <= umax();
}

bool Interval::includes(const Interval& other) const {
  if (other.bottom_) return true;
  if (bottom_) return false;
  return umin() <= other.umin() && other.umax() <= umax();
}

Interval Interval::widen(const Interval& newer) const {
  if (bottom_) return newer;
  if (newer.bottom_) return *this;
  // Threshold widening: when a bound is unstable, jump to the next
  // threshold instead of straight to the word boundary. Thresholds are
  // chosen to preserve the distinctions the analyses care about (zero,
  // small loop bounds, the signed wrap point).
  static constexpr std::array<std::int64_t, 10> thresholds = {
      0ll, 1ll, 16ll, 256ll, 4096ll, 65536ll, 0x1000000ll,
      0x7FFFFFFFll, 0x80000000ll, 0xFFFFFFFFll};
  std::int64_t lo = umin();
  std::int64_t hi = umax();
  if (newer.umin() < umin()) {
    lo = word_min;
    for (auto it = thresholds.rbegin(); it != thresholds.rend(); ++it) {
      if (*it <= newer.umin()) {
        lo = *it;
        break;
      }
    }
  }
  if (newer.umax() > umax()) {
    hi = word_max;
    for (const auto t : thresholds) {
      if (t >= newer.umax()) {
        hi = t;
        break;
      }
    }
  }
  return Interval(lo, hi);
}

namespace {

// Wrap a 64-bit result range into the unsigned word window, going to TOP
// when the range straddles a wrap boundary.
Interval wrap_range(std::int64_t lo, std::int64_t hi) {
  if (hi - lo >= k_two32) return Interval::top();
  // Shift both ends by the same multiple of 2^32.
  std::int64_t shift = 0;
  if (lo < 0) {
    shift = ((-lo + k_two32 - 1) / k_two32) * k_two32;
  } else if (lo >= k_two32) {
    shift = -(lo / k_two32) * k_two32;
  }
  lo += shift;
  hi += shift;
  if (hi > Interval::word_max) return Interval::top(); // straddles wrap
  return Interval::from_unsigned(lo, hi);
}

} // namespace

Interval Interval::add(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  return wrap_range(umin() + rhs.umin(), umax() + rhs.umax());
}

Interval Interval::sub(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  return wrap_range(umin() - rhs.umax(), umax() - rhs.umin());
}

Interval::SignedParts Interval::signed_parts() const {
  SignedParts split;
  if (bottom_) return split;
  if (umax() < 0x80000000ll) {
    split.parts[split.count++] = {umin(), umax()};
  } else if (umin() >= 0x80000000ll) {
    split.parts[split.count++] = {umin() - k_two32, umax() - k_two32};
  } else {
    split.parts[split.count++] = {umin(), k_smax};
    split.parts[split.count++] = {k_smin, umax() - k_two32};
  }
  return split;
}

Interval Interval::mul(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  // Multiply signed readings; the low 32 bits of the product are
  // identical for signed and unsigned interpretation, so any consistent
  // reading gives a sound range as long as no wrap occurs.
  Interval result = bottom();
  for (const auto& [alo, ahi] : signed_parts()) {
    for (const auto& [blo, bhi] : rhs.signed_parts()) {
      const __int128 c1 = static_cast<__int128>(alo) * blo;
      const __int128 c2 = static_cast<__int128>(alo) * bhi;
      const __int128 c3 = static_cast<__int128>(ahi) * blo;
      const __int128 c4 = static_cast<__int128>(ahi) * bhi;
      const __int128 lo = std::min(std::min(c1, c2), std::min(c3, c4));
      const __int128 hi = std::max(std::max(c1, c2), std::max(c3, c4));
      if (hi - lo >= k_two32) return top();
      // wrap_range on 64-bit values; product ranges fit in 128 bits and
      // the width check above guarantees a single window after shifting.
      const __int128 width = hi - lo;
      __int128 shifted_lo = lo % k_two32;
      if (shifted_lo < 0) shifted_lo += k_two32;
      const __int128 shifted_hi = shifted_lo + width;
      if (shifted_hi > word_max) return top();
      result = result.join(from_unsigned(static_cast<std::int64_t>(shifted_lo),
                                         static_cast<std::int64_t>(shifted_hi)));
    }
  }
  return result;
}

Interval Interval::div_u(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  // tiny32 defines x / 0 == 0 (no trap), so a divisor range containing
  // zero contributes the value 0.
  Interval result = bottom();
  if (rhs.contains(0)) result = result.join(constant(0));
  const std::int64_t dlo = std::max<std::int64_t>(rhs.umin(), 1);
  const std::int64_t dhi = rhs.umax();
  if (dlo <= dhi) {
    result = result.join(from_unsigned(umin() / dhi, umax() / dlo));
  }
  return result;
}

Interval Interval::rem_u(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  // tiny32: x % 0 == x.
  Interval result = bottom();
  if (rhs.contains(0)) result = result.join(*this);
  const std::int64_t dlo = std::max<std::int64_t>(rhs.umin(), 1);
  const std::int64_t dhi = rhs.umax();
  if (dlo <= dhi) {
    if (auto dc = rhs.as_constant(); dc && *dc != 0 && is_constant()) {
      result = result.join(constant(static_cast<std::uint32_t>(umin()) % *dc));
    } else {
      result = result.join(from_unsigned(0, std::min(umax(), dhi - 1)));
    }
  }
  return result;
}

Interval Interval::div_s(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  Interval result = bottom();
  if (rhs.contains(0)) result = result.join(constant(0)); // tiny32: x /s 0 == 0
  for (const auto& [alo, ahi] : signed_parts()) {
    for (auto [blo, bhi] : rhs.signed_parts()) {
      // Remove zero from the divisor part (handled above).
      if (blo == 0 && bhi == 0) continue;
      if (blo == 0) blo = 1;
      if (bhi == 0) bhi = -1;
      if (blo > bhi) continue;
      std::int64_t lo = INT64_MAX;
      std::int64_t hi = INT64_MIN;
      for (const std::int64_t a : {alo, ahi}) {
        for (const std::int64_t b : {blo, bhi}) {
          const std::int64_t q = a / b; // C++ truncating division == tiny32 DIV
          lo = std::min(lo, q);
          hi = std::max(hi, q);
        }
      }
      // Division range over intervals is attained at corners only when
      // signs are uniform within each part — which signed_parts ensures
      // for the dividend; divisor parts may still cross zero after the
      // zero-removal above only if blo<0<bhi, handle by splitting.
      if (blo < 0 && bhi > 0) {
        for (const std::int64_t a : {alo, ahi}) {
          for (const std::int64_t b : {-1ll, 1ll}) {
            const std::int64_t q = a / b;
            lo = std::min(lo, q);
            hi = std::max(hi, q);
          }
        }
      }
      result = result.join(from_signed_clamped(lo, hi));
    }
  }
  return result;
}

Interval Interval::rem_s(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  Interval result = bottom();
  if (rhs.contains(0)) result = result.join(*this); // tiny32: x %s 0 == x
  // |a %s b| < |b| and sign(a %s b) == sign(a) (or zero).
  std::int64_t max_abs_b = 0;
  for (const auto& [blo, bhi] : rhs.signed_parts()) {
    max_abs_b = std::max({max_abs_b, std::abs(blo), std::abs(bhi)});
  }
  if (max_abs_b > 0) {
    const std::int64_t bound = max_abs_b - 1;
    const std::int64_t lo = smin() < 0 ? -bound : 0;
    const std::int64_t hi = smax() > 0 ? bound : 0;
    result = result.join(from_signed_clamped(lo, hi));
  }
  return result;
}

Interval Interval::mulh_u(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  const std::uint64_t lo =
      (static_cast<std::uint64_t>(umin()) * static_cast<std::uint64_t>(rhs.umin())) >> 32;
  const std::uint64_t hi =
      (static_cast<std::uint64_t>(umax()) * static_cast<std::uint64_t>(rhs.umax())) >> 32;
  return from_unsigned(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
}

Interval Interval::shl(const Interval& amount) const {
  if (bottom_ || amount.bottom_) return bottom();
  Interval result = bottom();
  // tiny32 masks shift amounts to 5 bits.
  if (amount.size() > 32) return top();
  for (std::int64_t s = amount.umin(); s <= amount.umax(); ++s) {
    const std::int64_t k = s & 31;
    const std::int64_t lo = umin() << k;
    const std::int64_t hi = umax() << k;
    result = result.join(wrap_range(lo, hi));
    if (result.is_top()) return result;
  }
  return result;
}

Interval Interval::shr_u(const Interval& amount) const {
  if (bottom_ || amount.bottom_) return bottom();
  if (amount.size() > 32) return from_unsigned(0, umax());
  Interval result = bottom();
  for (std::int64_t s = amount.umin(); s <= amount.umax(); ++s) {
    const std::int64_t k = s & 31;
    result = result.join(from_unsigned(umin() >> k, umax() >> k));
  }
  return result;
}

Interval Interval::shr_s(const Interval& amount) const {
  if (bottom_ || amount.bottom_) return bottom();
  if (amount.size() > 32) return top();
  Interval result = bottom();
  for (std::int64_t s = amount.umin(); s <= amount.umax(); ++s) {
    const std::int64_t k = s & 31;
    for (const auto& [plo, phi] : signed_parts()) {
      result = result.join(from_signed_clamped(plo >> k, phi >> k));
    }
  }
  return result;
}

Interval Interval::bit_and(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  if (auto a = as_constant(); a && rhs.is_constant()) {
    return constant(*a & *rhs.as_constant());
  }
  // x & y <= min(x, y) for unsigned values.
  return from_unsigned(0, std::min(umax(), rhs.umax()));
}

namespace {
std::int64_t ceil_pow2_minus1(std::int64_t v) {
  std::int64_t r = 1;
  while (r - 1 < v) r <<= 1;
  return r - 1;
}
} // namespace

Interval Interval::bit_or(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  if (auto a = as_constant(); a && rhs.is_constant()) {
    return constant(*a | *rhs.as_constant());
  }
  // x | y >= max(x, y); x | y < 2^ceil(log2(max+1)+...) — bound by the
  // smallest all-ones mask covering both maxima.
  const std::int64_t hi =
      std::min<std::int64_t>(word_max, ceil_pow2_minus1(std::max(umax(), rhs.umax())));
  return from_unsigned(std::max(umin(), rhs.umin()), hi);
}

Interval Interval::bit_xor(const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  if (auto a = as_constant(); a && rhs.is_constant()) {
    return constant(*a ^ *rhs.as_constant());
  }
  const std::int64_t hi =
      std::min<std::int64_t>(word_max, ceil_pow2_minus1(std::max(umax(), rhs.umax())));
  return from_unsigned(0, hi);
}

Interval Interval::compare(Pred p, const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  const Interval can_be_true = refine(p, rhs);
  const Interval can_be_false = refine(negate(p), rhs);
  if (can_be_false.is_bottom()) return constant(1);
  if (can_be_true.is_bottom()) return constant(0);
  return boolean();
}

Interval Interval::refine(Pred p, const Interval& rhs) const {
  if (bottom_ || rhs.bottom_) return bottom();
  switch (p) {
  case Pred::eq:
    return meet(rhs);
  case Pred::ne:
    if (auto c = rhs.as_constant()) {
      // Trim a constant from either end.
      if (umin() == umax() && umin() == static_cast<std::int64_t>(*c)) return bottom();
      if (umin() == static_cast<std::int64_t>(*c)) return Interval(umin() + 1, umax());
      if (umax() == static_cast<std::int64_t>(*c)) return Interval(umin(), umax() - 1);
    }
    return *this;
  case Pred::lt_u:
    if (rhs.umax() == 0) return bottom(); // nothing is <u 0
    return meet(from_unsigned(word_min, rhs.umax() - 1));
  case Pred::ge_u:
    return meet(from_unsigned(rhs.umin(), word_max));
  case Pred::lt_s: {
    // Signed refinement: this <s rhs, so signed(this) <= smax(rhs)-1.
    const std::int64_t bound = rhs.smax();
    if (bound == k_smin) return bottom();
    Interval result = bottom();
    for (const auto& [plo, phi] : signed_parts()) {
      const std::int64_t new_hi = std::min(phi, bound - 1);
      if (plo <= new_hi) result = result.join(from_signed_clamped(plo, new_hi));
    }
    return meet(result.is_bottom() ? bottom() : result);
  }
  case Pred::ge_s: {
    const std::int64_t bound = rhs.smin();
    Interval result = bottom();
    for (const auto& [plo, phi] : signed_parts()) {
      const std::int64_t new_lo = std::max(plo, bound);
      if (new_lo <= phi) result = result.join(from_signed_clamped(new_lo, phi));
    }
    return meet(result.is_bottom() ? bottom() : result);
  }
  }
  internal_fail(__FILE__, __LINE__, "bad Pred");
}

std::string Interval::to_string() const {
  if (bottom_) return "⊥";
  if (is_top()) return "⊤";
  std::ostringstream os;
  if (auto c = as_constant()) {
    os << *c;
    if (*c >= 0x80000000u) os << " (" << to_signed64(umin()) << ')';
    return os.str();
  }
  os << '[' << umin() << ", " << umax() << ']';
  if (umax() >= 0x80000000ll) {
    os << " (s:[" << smin() << ", " << smax() << "])";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << iv.to_string();
}

} // namespace wcet
