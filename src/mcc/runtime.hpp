// mcc program driver: glues user source, the runtime library and the
// startup code into an executable tiny32 image.
//
// The runtime consists of
//  - a C prelude with the reserved prototypes (malloc, setjmp, longjmp,
//    putchar, __va_start),
//  - runtime C compiled together with the user code: the bump allocator
//    and the complete binary32 soft-float library (__f32_*), itself
//    written in the mcc subset — tiny32 has no FPU, so float operators
//    lower to these routines (paper Section 4.3, Software Arithmetic),
//  - runtime assembly: _start, putchar (ecall wrapper), setjmp/longjmp
//    (register-file save/restore — the rule 20.7 ingredients).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "isa/image.hpp"
#include "mcc/misra.hpp"

namespace wcet::mcc {

struct CompileResult {
  isa::Image image;
  std::string assembly; // full program assembly (user + runtime)
  std::vector<MisraViolation> violations;
};

// Compile a user translation unit into a runnable/analyzable image.
// Throws InputError on lex/parse/sema/codegen errors.
CompileResult compile_program(std::string_view user_source);

// Exposed for tests.
std::string_view runtime_prelude();
std::string runtime_c();
std::string runtime_asm();

} // namespace wcet::mcc
