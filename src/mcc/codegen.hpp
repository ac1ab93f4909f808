// Code generator: mcc AST -> tiny32 assembly text.
//
// Conventions (documented here because the analyses depend on them):
//  - Calling convention: first four arguments in a0..a3, rest on the
//    stack at the callee's fp+0, fp+4, ...; variadic functions take ALL
//    arguments on the stack (so __va_start() is just fp + 4*nparams).
//    Result in a0. a0-a3/t0-t2 caller-saved, s0-s4/fp callee-saved.
//  - Frame: fp = caller's sp; ra at fp-4, saved fp at fp-8, then saved
//    s-registers, then memory-homed locals. Expression temporaries are
//    pushed/popped below sp and always balance within a statement.
//  - Scalar locals and parameters that are never address-taken are
//    promoted to s0..s4 in declaration order; loop counters therefore
//    become the `addi sN, sN, c` pattern that automatic loop-bound
//    detection recognizes (and rule 13.6 violations destroy).
//  - Dense switches (>= 4 cases, span <= 3x count) compile to a
//    bounds-checked jump table in .rodata with a .global'd size — the
//    exact idiom the decoder's jump-table matcher resolves.
//  - Float operations lower to the __f32_* soft-float runtime calls
//    (tiny32 has no FPU), which is why rule 13.4 violations genuinely
//    defeat loop-bound analysis on this target.
#pragma once

#include <string>

#include "mcc/ast.hpp"

namespace wcet::mcc {

// Generate assembly for the unit (no _start, no runtime — see
// mcc/runtime.hpp for the full-program driver).
std::string generate(const TranslationUnit& unit);

} // namespace wcet::mcc
