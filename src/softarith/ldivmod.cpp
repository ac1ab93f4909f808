#include "softarith/ldivmod.hpp"

namespace wcet::softarith {

LDivModResult ldivmod(std::uint32_t a, std::uint32_t b) {
  if (b == 0) {
    // Saturating convention on division by zero (no trap on HCS12X-style
    // library code); not part of the Table-1 experiment.
    return {0xFFFFFFFFu, a, 0};
  }
  const std::uint32_t bh = b >> 16;
  if (bh == 0) {
    // Divisor fits the 32/16 hardware divider: one EDIV, no refinement.
    return {a / b, a % b, 0};
  }
  if (bh == 0xFFFFu) {
    // bh + 1 would overflow 16 bits; quotient is 0 or 1 -> compare path.
    const std::uint32_t q = a >= b ? 1u : 0u;
    return {q, a - q * b, 1};
  }

  std::uint32_t q = 0;
  std::uint32_t e = a;
  unsigned iterations = 1; // the first estimate-and-verify pass
  bool safe_mode = false;

  // 16-bit limb carry cross-check of d*b against e. When the low bits of
  // the low-limb product alias the dividend the check is inconclusive
  // and the routine drops to conservative unit subtraction for the rest
  // of the division ("safe mode").
  const auto alias = [&](std::uint32_t d, std::uint32_t residual) {
    return d >= 2 && d < 256 &&
           ((d * (b & 0xFFFFu)) & alias_low_mask) == (residual & alias_low_mask) &&
           ((residual >> 16) & alias_high_mask) == (d & alias_high_mask);
  };

  // Pass 1: up to two chained coarse digits, one EDIV on the high halves
  // each. Using bh + 1 guarantees d*b <= e (never overshoots) at the
  // cost of undershooting by up to a factor 1/(bh+1) per digit.
  for (int sub = 0; sub < 2 && e >= b && !safe_mode; ++sub) {
    std::uint32_t d = (e >> 16) / (bh + 1);
    if (d == 0) d = 1;
    if (alias(d, e)) {
      safe_mode = true;
      d = 1;
    }
    q += d;
    e -= d * b;
  }

  // Correction passes (rare): fine digit via the wide multiply-
  // accumulate slow path, or unit subtraction in safe mode.
  while (e >= b) {
    ++iterations;
    std::uint32_t d = 1;
    if (!safe_mode) {
      d = (e >> 4) / ((b >> 4) + 1);
      if (d == 0) d = 1;
      if (alias(d, e)) {
        safe_mode = true;
        d = 1;
      }
    }
    q += d;
    e -= d * b;
  }
  return {q, e, iterations};
}

UDivResult udivmod_bitserial(std::uint32_t a, std::uint32_t b) {
  std::uint32_t r = 0;
  std::uint32_t q = 0;
  for (unsigned i = 0; i < 32; ++i) {
    r = (r << 1) | (a >> 31);
    a <<= 1;
    q <<= 1;
    if (b != 0 && r >= b) {
      r -= b;
      q |= 1;
    }
  }
  // For b == 0 no subtraction ever fires: q == 0 and r == a, matching
  // the tiny32 port bit for bit.
  return {q, r};
}

std::string_view ldivmod_tiny32_program() {
  return R"(
; lDivMod reconstruction, tiny32 port. Same algorithm as the native
; implementation in ldivmod.cpp; the iteration counter is returned in a2
; so tests can cross-validate the two instruction streams.
        .text 0x1000
        .global _start
        .global ldivmod
_start:
        movi sp, 0x3F000
        movi t0, input_a
        lw   a0, 0(t0)
        movi t0, input_b
        lw   a1, 0(t0)
        call ldivmod
        movi t0, out_q
        sw   a0, 0(t0)
        movi t0, out_r
        sw   a1, 0(t0)
        movi t0, out_iters
        sw   a2, 0(t0)
        halt

; a0 = dividend, a1 = divisor -> a0 = quotient, a1 = remainder,
; a2 = refinement iterations
ldivmod:
        movi a2, 0
        bne  a1, zero, .nonzero
        mov  a1, a0              ; division by zero: r = a, q = ~0
        movi a0, 0xFFFFFFFF
        ret
.nonzero:
        srli t0, a1, 16          ; bh
        bne  t0, zero, .big
        divu t1, a0, a1          ; single EDIV path: 0 iterations
        remu a1, a0, a1
        mov  a0, t1
        ret
.big:
        movi t1, 0xFFFF
        bne  t0, t1, .general
        movi a2, 1               ; bh == 0xFFFF: compare path
        bltu a0, a1, .cmp0
        sub  a1, a0, a1
        movi a0, 1
        ret
.cmp0:
        mov  a1, a0
        movi a0, 0
        ret
.general:
        addi sp, sp, -8
        sw   s0, 0(sp)
        sw   s1, 4(sp)
        srli t1, a1, 16
        addi t1, t1, 1           ; t1 = bh + 1
        mov  t0, a0              ; t0 = e
        movi a0, 0               ; a0 = q
        movi a3, 0               ; a3 = safe_mode
        movi a2, 1               ; iterations = 1 (estimate-and-verify)

        ; ---- pass 1, coarse digit A -------------------------------
        bltu t0, a1, .done
        srli t2, t0, 16
        divu t2, t2, t1          ; d = (e >> 16) / (bh + 1)
        bne  t2, zero, .checkA
        movi t2, 1
        j    .applyA
.checkA:
        sltiu s0, t2, 2          ; alias window: 2 <= d < 256
        bne  s0, zero, .applyA
        sltiu s0, t2, 256
        beq  s0, zero, .applyA
        andi s0, a1, 0xFFFF      ; bl
        mul  s0, t2, s0          ; d * bl
        andi s0, s0, 0xFFF       ; alias_low_mask
        andi s1, t0, 0xFFF
        bne  s0, s1, .applyA
        srli s0, t0, 16
        andi s0, s0, 0x1F        ; alias_high_mask
        andi s1, t2, 0x1F
        bne  s0, s1, .applyA
        movi a3, 1               ; inconclusive: safe mode
        movi t2, 1
.applyA:
        add  a0, a0, t2
        mul  t2, t2, a1
        sub  t0, t0, t2          ; e -= d*b

        ; ---- pass 1, coarse digit B (skipped in safe mode) --------
        bltu t0, a1, .done
        bne  a3, zero, .loop
        srli t2, t0, 16
        divu t2, t2, t1
        bne  t2, zero, .checkB
        movi t2, 1
        j    .applyB
.checkB:
        sltiu s0, t2, 2
        bne  s0, zero, .applyB
        sltiu s0, t2, 256
        beq  s0, zero, .applyB
        andi s0, a1, 0xFFFF
        mul  s0, t2, s0
        andi s0, s0, 0xFFF
        andi s1, t0, 0xFFF
        bne  s0, s1, .applyB
        srli s0, t0, 16
        andi s0, s0, 0x1F
        andi s1, t2, 0x1F
        bne  s0, s1, .applyB
        movi a3, 1
        movi t2, 1
.applyB:
        add  a0, a0, t2
        mul  t2, t2, a1
        sub  t0, t0, t2

        ; ---- correction passes ------------------------------------
.loop:
        bltu t0, a1, .done
        addi a2, a2, 1           ; ++iterations
        movi t2, 1
        bne  a3, zero, .applyC   ; safe mode: unit step
        srli t2, t0, 4           ; fine digit
        srli s0, a1, 4
        addi s0, s0, 1
        divu t2, t2, s0          ; d = (e >> 4) / ((b >> 4) + 1)
        bne  t2, zero, .checkC
        movi t2, 1
        j    .applyC
.checkC:
        sltiu s0, t2, 2
        bne  s0, zero, .applyC
        sltiu s0, t2, 256
        beq  s0, zero, .applyC
        andi s0, a1, 0xFFFF
        mul  s0, t2, s0
        andi s0, s0, 0xFFF
        andi s1, t0, 0xFFF
        bne  s0, s1, .applyC
        srli s0, t0, 16
        andi s0, s0, 0x1F
        andi s1, t2, 0x1F
        bne  s0, s1, .applyC
        movi a3, 1
        movi t2, 1
.applyC:
        add  a0, a0, t2
        mul  t2, t2, a1
        sub  t0, t0, t2
        j    .loop
.done:
        mov  a1, t0
        lw   s0, 0(sp)
        lw   s1, 4(sp)
        addi sp, sp, 8
        ret

        .data 0x20000
        .global input_a
input_a:   .word 0
        .global input_b
input_b:   .word 0
        .global out_q
out_q:     .word 0
        .global out_r
out_r:     .word 0
        .global out_iters
out_iters: .word 0
)";
}

std::string_view bitserial_tiny32_program() {
  return R"(
; Constant-iteration restoring divider (the paper's predictability
; remedy): exactly 32 loop iterations for any input, and no
; data-dependent branch, so every input takes the same cycle count.
        .text 0x1000
        .global _start
        .global udiv32
_start:
        movi sp, 0x3F000
        movi t0, input_a
        lw   a0, 0(t0)
        movi t0, input_b
        lw   a1, 0(t0)
        call udiv32
        movi t0, out_q
        sw   a0, 0(t0)
        movi t0, out_r
        sw   a1, 0(t0)
        movi t0, out_iters
        sw   a2, 0(t0)
        halt

; a0 = dividend, a1 = divisor -> a0 = q, a1 = r, a2 = iterations (32)
udiv32:
        movi t0, 0               ; r
        movi t1, 0               ; q
        movi a2, 0               ; i
        movi a3, 32
        sltu s0, zero, a1        ; 0 for divisor 0: never subtract
.bitloop:
        slli t0, t0, 1
        srli t2, a0, 31
        or   t0, t0, t2
        slli a0, a0, 1
        slli t1, t1, 1
        sltu t2, t0, a1          ; quotient bit t2 = r >= d && d != 0
        xori t2, t2, 1
        and  t2, t2, s0
        sub  s1, zero, t2        ; all ones iff the bit is set
        and  s1, s1, a1
        sub  t0, t0, s1          ; r -= bit ? d : 0
        or   t1, t1, t2
        addi a2, a2, 1
        blt  a2, a3, .bitloop
        mov  a0, t1
        mov  a1, t0
        ret

        .data 0x20000
        .global input_a
input_a:   .word 0
        .global input_b
input_b:   .word 0
        .global out_q
out_q:     .word 0
        .global out_r
out_r:     .word 0
        .global out_iters
out_iters: .word 0
)";
}

} // namespace wcet::softarith
