// Shared pieces of the two front ends (wcet_cli, wcet_serve): the
// classified exit codes and the error boundary that maps every failure
// onto one of them, input loading, and flag-value parsing.
//
//   0  analysis completed, bound stated (possibly DEGRADED, see report)
//   1  analysis completed, no bound (obstructions listed in the report)
//   2  input error: malformed image/source/annotations/flags (InputError)
//   3  analysis error: classified analysis-level failure, including
//      cancellation and memory exhaustion (AnalysisError)
//   4  internal error: an analyzer invariant broke (InternalError) or an
//      unclassified exception escaped — always a bug worth reporting
#pragma once

#include <charconv>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "analysis/ipet.hpp"
#include "isa/assembler.hpp"
#include "mcc/runtime.hpp"
#include "support/diag.hpp"
#include "wcet/analyzer.hpp"

namespace wcet::cli {

constexpr int kExitOk = 0;
constexpr int kExitNoBound = 1;
constexpr int kExitInputError = 2;
constexpr int kExitAnalysisError = 3;
constexpr int kExitInternalError = 4;

// Upper limit of `--threads`: a pool of N spawns N-1 OS threads, so an
// absurd value is an input error, not a resource exhaustion.
constexpr std::uint64_t kMaxThreads = 256;

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InputError("cannot open input file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw InputError("cannot read input file: " + path);
  return buffer.str();
}

// A tiny32 assembly file (.s) or an mcc C translation unit (any other
// extension).
inline isa::Image load_image(const std::string& path) {
  const std::string source = read_file(path);
  const bool assembly = path.size() >= 2 && path.compare(path.size() - 2, 2, ".s") == 0;
  return assembly ? isa::assemble(source) : mcc::compile_program(source).image;
}

// Decimal digits only: no sign, no whitespace, no overflow.
inline std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    throw InputError(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

inline int parse_threads(const std::string& flag, const std::string& text) {
  const std::uint64_t threads = parse_u64(flag, text);
  if (threads > kMaxThreads) {
    throw InputError(flag + " expects at most " + std::to_string(kMaxThreads) + ", got '" +
                     text + "'");
  }
  return static_cast<int>(threads);
}

inline analysis::IpetDecomposition parse_decomposition(const std::string& flag,
                                                       const std::string& mode) {
  if (mode == "monolithic") return analysis::IpetDecomposition::monolithic;
  if (mode == "recursive") return analysis::IpetDecomposition::recursive;
  throw InputError(flag + " expects monolithic|recursive, got '" + mode + "'");
}

// --validate promotes an oracle contradiction to the internal-error
// exit: an enumerated path costed outside [BCET, WCET], a witness path
// that cannot be realized, or a replayed execution outside the stated
// bounds means an analyzer invariant (soundness) broke. Both front ends
// call this for every report they print.
inline void check_validation(const WcetReport& report) {
  if (!report.ok || !report.validated) return;
  const bool oracle_violation = report.paths_explored > 0 && !report.oracle_bracket_ok;
  const bool witness_invalid = report.witness_checked && !report.witness_valid;
  const bool replay_outside =
      report.witness_replayed && (report.measured_cycles > report.wcet_cycles ||
                                  report.measured_cycles < report.bcet_cycles);
  if (oracle_violation || witness_invalid || replay_outside) {
    throw InternalError("validation oracle contradicts the computed bounds");
  }
}

// The error boundary: exactly one classified exit per failure class.
// Order matters — InternalError derives from logic_error and the
// others from runtime_error, but catch the most specific first anyway
// so a future hierarchy change cannot silently reroute a class.
template <typename Run>
int run_classified(Run run) {
  try {
    return run();
  } catch (const InputError& e) {
    std::cerr << "error(input): " << e.what() << '\n';
    return kExitInputError;
  } catch (const AnalysisError& e) {
    std::cerr << "error(analysis): " << e.what() << '\n';
    return kExitAnalysisError;
  } catch (const InternalError& e) {
    std::cerr << "error(internal): " << e.what() << '\n';
    return kExitInternalError;
  } catch (const std::bad_alloc&) {
    std::cerr << "error(analysis): out of memory\n";
    return kExitAnalysisError;
  } catch (const std::exception& e) {
    std::cerr << "error(internal): unclassified exception: " << e.what() << '\n';
    return kExitInternalError;
  } catch (...) {
    std::cerr << "error(internal): unknown exception\n";
    return kExitInternalError;
  }
}

} // namespace wcet::cli
