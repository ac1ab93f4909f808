// wcet_cli: command-line front end of the analyzer with a hardened
// error boundary.
//
// Every failure leaves through exactly one of four classified exits —
// the contract daemons and CI wrappers script against:
//
//   0  analysis completed, bound stated (possibly DEGRADED, see report)
//   1  analysis completed, no bound (obstructions listed in the report)
//   2  input error: malformed image/source/annotations/flags (InputError)
//   3  analysis error: classified analysis-level failure, including
//      cancellation and memory exhaustion (AnalysisError)
//   4  internal error: an analyzer invariant broke (InternalError) or an
//      unclassified exception escaped — always a bug worth reporting
//
// Inputs: a tiny32 assembly file (.s, isa::assemble) or an mcc C
// translation unit (any other extension, mcc::compile_program).
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "isa/assembler.hpp"
#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"
#include "wcet/analyzer.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitNoBound = 1;
constexpr int kExitInputError = 2;
constexpr int kExitAnalysisError = 3;
constexpr int kExitInternalError = 4;

void print_usage(std::ostream& os) {
  os << "usage: wcet_cli [options] <program.s | program.c>\n"
        "\n"
        "  --annotations FILE        annotation file (loop bounds, flow facts, ...)\n"
        "  --function NAME           analyze this function symbol instead of the entry\n"
        "  --mode NAME               operating mode for mode-scoped annotations\n"
        "  --threads N               worker threads (default 1; results identical)\n"
        "  --decomposition MODE      ipet split: monolithic | recursive\n"
        "  --ipet-mode MODE          alias for --decomposition\n"
        "  --validate                run the independent path-exploration oracle and\n"
        "                            witness replay against the computed bounds\n"
        "  --deadline-ms N           wall-clock budget; exceeding it degrades soundly\n"
        "  --budget-value-visits N   value-analysis fixpoint node-visit budget\n"
        "  --budget-cache-visits N   cache-analysis fixpoint node-visit budget\n"
        "  --budget-pivots N         simplex pivot budget per LP/ILP solve\n"
        "  --budget-ilp-nodes N      branch & bound node budget per ILP solve\n"
        "  --budget-state-bytes N    tracked abstract-state byte budget\n"
        "\n"
        "exit codes: 0 bound stated, 1 no bound (obstructions), 2 input error,\n"
        "            3 analysis error (incl. cancellation), 4 internal error\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw wcet::InputError("cannot open input file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw wcet::InputError("cannot read input file: " + path);
  return buffer.str();
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return static_cast<std::uint64_t>(value);
  } catch (const std::exception&) {
    throw wcet::InputError(flag + " expects a non-negative integer, got '" + text + "'");
  }
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct CliArgs {
  std::string input_path;
  std::string annotations_path;
  std::string function;
  wcet::AnalysisOptions options;
};

CliArgs parse_args(int argc, char** argv) {
  CliArgs args;
  const auto value_of = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) throw wcet::InputError(flag + " expects an argument");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(kExitOk);
    } else if (arg == "--annotations") {
      args.annotations_path = value_of(i, arg);
    } else if (arg == "--function") {
      args.function = value_of(i, arg);
    } else if (arg == "--mode") {
      args.options.mode = value_of(i, arg);
    } else if (arg == "--threads") {
      args.options.threads = static_cast<int>(parse_u64(arg, value_of(i, arg)));
    } else if (arg == "--decomposition" || arg == "--ipet-mode") {
      const std::string mode = value_of(i, arg);
      if (mode == "monolithic") {
        args.options.decomposition = wcet::analysis::IpetDecomposition::monolithic;
      } else if (mode == "recursive") {
        args.options.decomposition = wcet::analysis::IpetDecomposition::recursive;
      } else {
        throw wcet::InputError(arg + " expects monolithic|recursive, got '" + mode + "'");
      }
    } else if (arg == "--validate") {
      args.options.validate = true;
    } else if (arg == "--deadline-ms") {
      args.options.budget.deadline_ms = parse_u64(arg, value_of(i, arg));
    } else if (arg == "--budget-value-visits") {
      args.options.budget.max_value_visits = parse_u64(arg, value_of(i, arg));
    } else if (arg == "--budget-cache-visits") {
      args.options.budget.max_cache_visits = parse_u64(arg, value_of(i, arg));
    } else if (arg == "--budget-pivots") {
      args.options.budget.max_pivots = parse_u64(arg, value_of(i, arg));
    } else if (arg == "--budget-ilp-nodes") {
      args.options.budget.max_ilp_nodes = parse_u64(arg, value_of(i, arg));
    } else if (arg == "--budget-state-bytes") {
      args.options.budget.max_state_bytes = parse_u64(arg, value_of(i, arg));
    } else if (!arg.empty() && arg[0] == '-') {
      throw wcet::InputError("unknown flag: " + arg + " (try --help)");
    } else if (args.input_path.empty()) {
      args.input_path = arg;
    } else {
      throw wcet::InputError("more than one input file given: '" + args.input_path +
                             "' and '" + arg + "'");
    }
  }
  if (args.input_path.empty()) throw wcet::InputError("no input file given (try --help)");
  return args;
}

int run(int argc, char** argv) {
  const CliArgs args = parse_args(argc, argv);
  const std::string source = read_file(args.input_path);
  const wcet::isa::Image image = ends_with(args.input_path, ".s")
                                     ? wcet::isa::assemble(source)
                                     : wcet::mcc::compile_program(source).image;
  std::string annotations;
  if (!args.annotations_path.empty()) annotations = read_file(args.annotations_path);

  const wcet::Analyzer analyzer(image, wcet::mem::typical_hw(), annotations);
  const wcet::WcetReport report =
      args.function.empty() ? analyzer.analyze(args.options)
                            : analyzer.analyze_function(args.function, args.options);
  std::cout << report.to_string();

  // --validate promotes an oracle contradiction to the internal-error
  // exit: a measured or enumerated execution outside the stated bounds
  // means an analyzer invariant (soundness) broke.
  if (report.ok && report.validated) {
    const bool oracle_violation = report.paths_explored > 0 && !report.oracle_bracket_ok;
    const bool witness_invalid = report.witness_checked && !report.witness_valid;
    const bool replay_outside =
        report.witness_replayed && (report.measured_cycles > report.wcet_cycles ||
                                    report.measured_cycles < report.bcet_cycles);
    if (oracle_violation || witness_invalid || replay_outside) {
      throw wcet::InternalError("validation oracle contradicts the computed bounds");
    }
  }
  return report.ok ? kExitOk : kExitNoBound;
}

} // namespace

int main(int argc, char** argv) {
  // The error boundary: exactly one classified exit per failure class.
  // Order matters — InternalError derives from logic_error and the
  // others from runtime_error, but catch the most specific first anyway
  // so a future hierarchy change cannot silently reroute a class.
  try {
    return run(argc, argv);
  } catch (const wcet::InputError& e) {
    std::cerr << "error(input): " << e.what() << '\n';
    return kExitInputError;
  } catch (const wcet::AnalysisError& e) {
    std::cerr << "error(analysis): " << e.what() << '\n';
    return kExitAnalysisError;
  } catch (const wcet::InternalError& e) {
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
