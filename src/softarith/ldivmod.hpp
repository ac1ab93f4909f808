// Software arithmetic (paper Section 4.3, "Software Arithmetic" and
// Table 1).
//
// `ldivmod` is a *reconstruction* of the CodeWarrior V4.6 HCS12X library
// routine of the same name: 32/32-bit unsigned division by successive
// approximation on a 16-bit CPU whose hardware divider (EDIV) only
// handles 32/16 bit operands. The original is proprietary; this
// implementation is calibrated to reproduce the statistical *shape* of
// the paper's Table 1 (see DESIGN.md):
//   - 0 refinement iterations exactly when the divisor fits 16 bits
//     (direct EDIV; probability 2^16/2^32 ~ 1.5e-5 on random inputs),
//   - 1 iteration in the overwhelming majority of cases (the first
//     quotient-digit estimate via the truncated reciprocal digit
//     d = (e >> 16) / (bh + 1) is immediately confirmed),
//   - 2+ iterations when the conservative estimate falls short
//     (small divisor high-halves converge geometrically with ratio
//     1/(bh+1): divisors just above 2^16 can take ~17 passes),
//   - a rare long tail (> 150 iterations): the routine validates each
//     digit with a 16-bit limb carry cross-check; when the low-limb
//     product aliases the dividend limbs (a ~2^-19 coincidence) the
//     check is inconclusive and the routine falls back permanently to
//     conservative unit subtraction — "safe mode". Counts then track the
//     remaining quotient, capped near 256 by the d < 256 trigger window.
//
// The companion `udivmod_bitserial` is the paper's proposed remedy: a
// WCET-predictable constant-iteration (32-step) restoring divider. Its
// tiny32 port subtracts through a mask instead of a branch, so its cycle
// count does not depend on the operands either.
//
// Both routines also exist as tiny32 assembly (`*_tiny32_asm`), so the
// static analyzer can be pointed at the very code whose distribution the
// host-side experiment measures; tests cross-validate the two
// implementations instruction-for-instruction on random inputs.
#pragma once

#include <cstdint>
#include <string_view>

namespace wcet::softarith {

struct LDivModResult {
  std::uint32_t quotient = 0;
  std::uint32_t remainder = 0;
  unsigned iterations = 0; // refinement-loop passes (Table 1 quantity)
};

// Tuning knobs of the safe-mode coincidence (see file comment): the limb
// cross-check compares 12 low bits of the d*b_low product against the
// dividend plus 5 bits of the high limb against the digit, so the
// per-digit trigger probability is about 2^-17 within the d in [2, 256)
// window — calibrated so roughly 10^-6 of random divisions enter the
// long tail, matching the tail mass of the paper's Table 1.
inline constexpr std::uint32_t alias_low_mask = 0xFFF;
inline constexpr std::uint32_t alias_high_mask = 0x1F;

LDivModResult ldivmod(std::uint32_t dividend, std::uint32_t divisor);

struct UDivResult {
  std::uint32_t quotient = 0;
  std::uint32_t remainder = 0;
};

// Constant-iteration restoring division: always exactly 32 loop
// iterations regardless of operand values.
UDivResult udivmod_bitserial(std::uint32_t dividend, std::uint32_t divisor);

// tiny32 assembly sources implementing the same routines. Calling
// convention: a0 = dividend, a1 = divisor; returns a0 = quotient,
// a1 = remainder, a2 = iteration count. Each is a complete program with
// `_start` reading inputs from the `input_a`/`input_b` words and storing
// results to `out_q`/`out_r`/`out_iters`.
std::string_view ldivmod_tiny32_program();
std::string_view bitserial_tiny32_program();

} // namespace wcet::softarith
