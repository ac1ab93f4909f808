#include "mcc/runtime.hpp"

#include <algorithm>
#include <sstream>

#include "isa/assembler.hpp"
#include "mcc/codegen.hpp"
#include "mcc/parser.hpp"
#include "mcc/sema.hpp"
#include "support/diag.hpp"

namespace wcet::mcc {

namespace {

// Memory layout of a compiled program: the initial stack pointer and
// the bump allocator's first address.
constexpr std::uint32_t stack_top = 0x3F000;
constexpr std::uint32_t heap_base = 0x30000;

} // namespace

std::string_view runtime_prelude() {
  return R"(void* malloc(unsigned int n);
int setjmp(int* env);
void longjmp(int* env, int val);
void putchar(int c);
int* __va_start(void);
)";
}

std::string runtime_c() {
  std::ostringstream os;
  os << "static unsigned int __heap_ptr = " << heap_base << "u;\n";
  os << R"MCC(
void* malloc(unsigned int n) {
  unsigned int p = __heap_ptr;
  __heap_ptr = __heap_ptr + ((n + 3u) & 0xFFFFFFFCu);
  return (void*)p;
}

/* ---- binary32 soft-float library (FTZ/DAZ, round to nearest even). ----
   Written in the mcc subset itself; mirrors src/softarith/softfloat.cpp
   bit for bit (cross-validated by tests/test_mcc_softfloat.cpp). */

static unsigned int __f32_shr_sticky(unsigned int v, int n) {
  unsigned int s;
  if (n <= 0) { return v; }
  if (n > 31) {
    if (v != 0u) { return 1u; }
    return 0u;
  }
  s = v >> n;
  if ((v & ((1u << n) - 1u)) != 0u) { s = s | 1u; }
  return s;
}

static unsigned int __f32_pack(unsigned int sign, int exp, unsigned int sig_grs) {
  unsigned int sig = sig_grs >> 3;
  unsigned int grs = sig_grs & 7u;
  if (grs > 4u) { sig = sig + 1u; }
  else {
    if (grs == 4u) {
      if ((sig & 1u) != 0u) { sig = sig + 1u; }
    }
  }
  if (sig == 16777216u) { sig = sig >> 1; exp = exp + 1; }
  if (exp > 127) { return (sign << 31) | 2139095040u; }
  if (exp < -126) { return sign << 31; }
  return (sign << 31) | (((unsigned int)(exp + 127)) << 23) | (sig & 8388607u);
}

unsigned int __f32_add(unsigned int a, unsigned int b) {
  unsigned int asign = a >> 31;
  unsigned int bsign = b >> 31;
  unsigned int aexp = (a >> 23) & 255u;
  unsigned int bexp = (b >> 23) & 255u;
  unsigned int afrac = a & 8388607u;
  unsigned int bfrac = b & 8388607u;
  unsigned int xsign; unsigned int xexp; unsigned int xfrac;
  unsigned int yexp; unsigned int yfrac;
  unsigned int xs; unsigned int ys; unsigned int sig;
  int exp; int k;
  if (aexp == 255u) {
    if (afrac != 0u) { return 2143289344u; }
    if (bexp == 255u) {
      if (bfrac != 0u) { return 2143289344u; }
      if (asign == bsign) { return a; }
      return 2143289344u;
    }
    return a;
  }
  if (bexp == 255u) {
    if (bfrac != 0u) { return 2143289344u; }
    return b;
  }
  if (aexp == 0u) {
    if (bexp == 0u) {
      if (asign == bsign) { return asign << 31; }
      return 0u;
    }
    return b;
  }
  if (bexp == 0u) { return a; }
  if (aexp > bexp || (aexp == bexp && afrac >= bfrac)) {
    xsign = asign; xexp = aexp; xfrac = afrac; yexp = bexp; yfrac = bfrac;
    if (asign != bsign) { bsign = 1u; } else { bsign = 0u; }
  } else {
    xsign = bsign; xexp = bexp; xfrac = bfrac; yexp = aexp; yfrac = afrac;
    if (asign != bsign) { bsign = 1u; } else { bsign = 0u; }
  }
  /* bsign now means "operand signs differ" (subtract magnitudes). */
  xfrac = xfrac | 8388608u;
  yfrac = yfrac | 8388608u;
  xs = xfrac << 3;
  ys = __f32_shr_sticky(yfrac << 3, (int)(xexp - yexp));
  exp = (int)xexp - 127;
  if (bsign == 0u) {
    sig = xs + ys;
    if (sig >= 134217728u) { sig = __f32_shr_sticky(sig, 1); exp = exp + 1; }
    return __f32_pack(xsign, exp, sig);
  }
  sig = xs - ys;
  if (sig == 0u) { return 0u; }
  for (k = 0; k < 27; k = k + 1) {
    if (sig >= 67108864u) { break; }
    sig = sig << 1;
    exp = exp - 1;
  }
  return __f32_pack(xsign, exp, sig);
}

unsigned int __f32_sub(unsigned int a, unsigned int b) {
  return __f32_add(a, b ^ 2147483648u);
}

unsigned int __f32_mul(unsigned int a, unsigned int b) {
  unsigned int sign = (a >> 31) ^ (b >> 31);
  unsigned int aexp = (a >> 23) & 255u;
  unsigned int bexp = (b >> 23) & 255u;
  unsigned int afrac = a & 8388607u;
  unsigned int bfrac = b & 8388607u;
  unsigned int ma; unsigned int mb;
  unsigned int ah; unsigned int al; unsigned int bh; unsigned int bl;
  unsigned int hi; unsigned int mid; unsigned int lower25; unsigned int upper;
  unsigned int lower24; unsigned int sig;
  int exp;
  if (aexp == 255u) {
    if (afrac != 0u) { return 2143289344u; }
    if (bexp == 0u && (b & 8388607u) == 0u) { return 2143289344u; } /* inf * 0 */
    if (bexp == 0u) { return 2143289344u; } /* inf * (DAZ) 0 */
    if (bexp == 255u && bfrac != 0u) { return 2143289344u; }
    return (sign << 31) | 2139095040u;
  }
  if (bexp == 255u) {
    if (bfrac != 0u) { return 2143289344u; }
    if (aexp == 0u) { return 2143289344u; } /* 0 * inf */
    return (sign << 31) | 2139095040u;
  }
  if (aexp == 0u || bexp == 0u) { return sign << 31; }
  ma = afrac | 8388608u;
  mb = bfrac | 8388608u;
  /* 24x24 -> 48-bit product from 12-bit limbs (no 64-bit type). */
  ah = ma >> 12; al = ma & 4095u;
  bh = mb >> 12; bl = mb & 4095u;
  hi = ah * bh;
  mid = ah * bl + al * bh;
  lower25 = ((mid & 4095u) << 12) + (al * bl);
  upper = hi + (mid >> 12) + (lower25 >> 24);
  lower24 = lower25 & 16777215u;
  exp = (int)aexp - 127 + ((int)bexp - 127);
  if (upper >= 8388608u) {
    sig = (upper << 3) | (lower24 >> 21);
    if ((lower24 & 2097151u) != 0u) { sig = sig | 1u; }
    exp = exp + 1;
  } else {
    sig = (upper << 4) | (lower24 >> 20);
    if ((lower24 & 1048575u) != 0u) { sig = sig | 1u; }
  }
  return __f32_pack(sign, exp, sig);
}

unsigned int __f32_div(unsigned int a, unsigned int b) {
  unsigned int sign = (a >> 31) ^ (b >> 31);
  unsigned int aexp = (a >> 23) & 255u;
  unsigned int bexp = (b >> 23) & 255u;
  unsigned int afrac = a & 8388607u;
  unsigned int bfrac = b & 8388607u;
  unsigned int ma; unsigned int mb; unsigned int q; unsigned int r;
  unsigned int sig; int exp; int i; int total;
  if (aexp == 255u) {
    if (afrac != 0u) { return 2143289344u; }
    if (bexp == 255u) { return 2143289344u; }
    return (sign << 31) | 2139095040u;
  }
  if (bexp == 255u) {
    if (bfrac != 0u) { return 2143289344u; }
    return sign << 31;
  }
  if (bexp == 0u) {
    if (aexp == 0u) { return 2143289344u; } /* 0/0 */
    return (sign << 31) | 2139095040u;      /* x/0 -> inf */
  }
  if (aexp == 0u) { return sign << 31; }
  ma = afrac | 8388608u;
  mb = bfrac | 8388608u;
  exp = (int)aexp - (int)bexp;
  total = 24 + 26;
  if (ma < mb) { total = 24 + 27; exp = exp - 1; }
  q = 0u;
  r = 0u;
  for (i = 0; i < total; i = i + 1) {
    r = r << 1;
    if (i < 24) { r = r | ((ma >> (23 - i)) & 1u); }
    q = q << 1;
    if (r >= mb) { r = r - mb; q = q | 1u; }
  }
  sig = q;
  if (r != 0u) { sig = sig | 1u; }
  return __f32_pack(sign, exp, sig);
}

static int __f32_is_nan(unsigned int x) {
  if (((x >> 23) & 255u) == 255u && (x & 8388607u) != 0u) { return 1; }
  return 0;
}

/* Magnitude with DAZ applied; sign returned via the high bit untouched. */
static unsigned int __f32_mag(unsigned int x) {
  if (((x >> 23) & 255u) == 0u) { return 0u; }
  return x & 2147483647u;
}

unsigned int __f32_lt(unsigned int a, unsigned int b) {
  unsigned int am; unsigned int bm; unsigned int as; unsigned int bs;
  if (__f32_is_nan(a) != 0 || __f32_is_nan(b) != 0) { return 0u; }
  am = __f32_mag(a); bm = __f32_mag(b);
  as = a >> 31; bs = b >> 31;
  if (am == 0u && bm == 0u) { return 0u; }
  if (as != bs) {
    if (as == 1u) { return 1u; }
    return 0u;
  }
  if (as == 0u) {
    if (am < bm) { return 1u; }
    return 0u;
  }
  if (am > bm) { return 1u; }
  return 0u;
}

unsigned int __f32_eq(unsigned int a, unsigned int b) {
  unsigned int am; unsigned int bm;
  if (__f32_is_nan(a) != 0 || __f32_is_nan(b) != 0) { return 0u; }
  am = __f32_mag(a); bm = __f32_mag(b);
  if (am == 0u && bm == 0u) { return 1u; }
  if (am == bm && (a >> 31) == (b >> 31)) { return 1u; }
  return 0u;
}

unsigned int __f32_le(unsigned int a, unsigned int b) {
  if (__f32_is_nan(a) != 0 || __f32_is_nan(b) != 0) { return 0u; }
  if (__f32_eq(a, b) != 0u) { return 1u; }
  return __f32_lt(a, b);
}

unsigned int __f32_from_i32(int v) {
  unsigned int sign; unsigned int mag; unsigned int sig;
  int exp; int k;
  if (v == 0) { return 0u; }
  sign = 0u;
  mag = (unsigned int)v;
  if (v < 0) { sign = 1u; mag = (unsigned int)(0 - v); }
  /* Find the leading bit position. */
  exp = 31;
  for (k = 0; k < 32; k = k + 1) {
    if ((mag & 2147483648u) != 0u) { break; }
    mag = mag << 1;
    exp = exp - 1;
  }
  /* mag now has the leading bit at position 31; move it to 26 (24+GRS-1)
     with sticky collection. */
  sig = mag >> 5;
  if ((mag & 31u) != 0u) { sig = sig | 1u; }
  return __f32_pack(sign, exp, sig);
}

int __f32_to_i32(unsigned int x) {
  unsigned int exp = (x >> 23) & 255u;
  unsigned int frac = x & 8388607u;
  unsigned int mag; int e;
  if (exp == 255u) {
    if (frac != 0u) { return 0; }
    if ((x >> 31) != 0u) { return (int)2147483648u; }
    return 2147483647;
  }
  if (exp == 0u) { return 0; }
  e = (int)exp - 127;
  if (e < 0) { return 0; }
  if (e > 30) {
    if ((x >> 31) != 0u) { return (int)2147483648u; }
    return 2147483647;
  }
  mag = frac | 8388608u;
  if (e >= 23) { mag = mag << (e - 23); }
  else { mag = mag >> (23 - e); }
  if ((x >> 31) != 0u) { return (int)(0u - mag); }
  return (int)mag;
}
)MCC";
  return os.str();
}

std::string runtime_asm() {
  std::ostringstream os;
  os << R"(
; ---- mcc runtime (assembly part) ----
        .entry _start
        .global _start
_start:
        movi sp, )" << stack_top << R"(
        call main
        mov  a1, a0              ; exit code = main()'s result
        movi a0, 0               ; EcallFn::exit
        ecall
        halt

        .global putchar
putchar:
        mov  a1, a0
        movi a0, 1               ; EcallFn::putchar
        ecall
        ret

; int setjmp(int* env): env[0..7] = ra, sp, fp, s0..s4
        .global setjmp
setjmp:
        sw   ra, 0(a0)
        sw   sp, 4(a0)
        sw   fp, 8(a0)
        sw   s0, 12(a0)
        sw   s1, 16(a0)
        sw   s2, 20(a0)
        sw   s3, 24(a0)
        sw   s4, 28(a0)
        movi a0, 0
        ret

; void longjmp(int* env, int val): restores the register file and
; "returns" from the original setjmp call with a0 = val (or 1).
        .global longjmp
longjmp:
        lw   ra, 0(a0)
        lw   sp, 4(a0)
        lw   fp, 8(a0)
        lw   s0, 12(a0)
        lw   s1, 16(a0)
        lw   s2, 20(a0)
        lw   s3, 24(a0)
        lw   s4, 28(a0)
        mov  a0, a1
        bne  a0, zero, .Llj_nonzero
        movi a0, 1
.Llj_nonzero:
        ret
)";
  return os.str();
}

CompileResult compile_program(std::string_view user_source) {
  CompileResult result;

  // MISRA audit runs on the user code alone (prelude offset corrected)
  // so runtime internals never pollute the rule counts.
  const std::string prelude(runtime_prelude());
  const int prelude_lines =
      static_cast<int>(std::count(prelude.begin(), prelude.end(), '\n'));
  const std::string audit_source = prelude + std::string(user_source);
  auto audit_unit = parse(audit_source);
  analyze(*audit_unit);
  result.violations = check_misra(*audit_unit);
  for (auto& violation : result.violations) {
    violation.line -= prelude_lines;
  }

  // Full build: prelude + user + runtime C, then runtime assembly.
  const std::string full_source = prelude + std::string(user_source) + runtime_c();
  auto unit = parse(full_source);
  analyze(*unit);
  if (unit->find_function("main") == nullptr || !unit->find_function("main")->defined) {
    throw InputError("mcc: program has no main()");
  }
  result.assembly = generate(*unit) + runtime_asm();
  result.image = isa::assemble(result.assembly);
  return result;
}

} // namespace wcet::mcc
