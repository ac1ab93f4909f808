// wcet_cli: command-line front end of the analyzer with a hardened
// error boundary.
//
// Every failure leaves through exactly one of four classified exits
// (cli_common.hpp) — the contract daemons and CI wrappers script
// against.
//
// Inputs: a tiny32 assembly file (.s, isa::assemble) or an mcc C
// translation unit (any other extension, mcc::compile_program).
#include <cstdlib>
#include <iostream>
#include <string>

#include "cli_common.hpp"
#include "mem/hwmodel.hpp"
#include "support/budget.hpp"
#include "wcet/analyzer.hpp"

namespace {

using namespace wcet::cli;

void print_usage(std::ostream& os) {
  os << "usage: wcet_cli [options] <program.s | program.c>\n"
        "\n"
        "  --annotations FILE        annotation file (loop bounds, flow facts, ...)\n"
        "  --function NAME           analyze this function symbol instead of the entry\n"
        "  --mode NAME               operating mode for mode-scoped annotations\n"
        "  --threads N               worker threads, <= 256 (default 1; results identical)\n"
        "  --decomposition MODE      ipet split: monolithic | recursive\n"
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
      args.options.threads = parse_threads(arg, value_of(i, arg));
    } else if (arg == "--decomposition") {
      args.options.decomposition = parse_decomposition(arg, value_of(i, arg));
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
  const wcet::isa::Image image = load_image(args.input_path);
  std::string annotations;
  if (!args.annotations_path.empty()) annotations = read_file(args.annotations_path);

  const wcet::Analyzer analyzer(image, wcet::mem::typical_hw(), annotations);
  const wcet::WcetReport report =
      args.function.empty() ? analyzer.analyze(args.options)
                            : analyzer.analyze_function(args.function, args.options);
  std::cout << report.to_string();
  check_validation(report);
  return report.ok ? kExitOk : kExitNoBound;
}

} // namespace

int main(int argc, char** argv) {
  return run_classified([&] { return run(argc, argv); });
}
