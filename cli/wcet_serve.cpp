// wcet_serve: persistent analysis-server front end (src/serve) with the
// same hardened error boundary and exit codes as wcet_cli
// (cli_common.hpp); exit 0 means every analysis stated a bound.
//
// One server instance is constructed per process invocation and fed
// every input in order: `--repeat N` resubmits each input N times (the
// steady-state requests are served from the exact-match report cache),
// a `serve:` line after each report prints the server counters of that
// request, and `--stats` dumps the cumulative counters after the last
// request — the text endpoint the `serve_repeat_hits` ctest greps.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "mem/hwmodel.hpp"
#include "serve/analysis_server.hpp"
#include "wcet/analyzer.hpp"

namespace {

using namespace wcet::cli;

void print_usage(std::ostream& os) {
  os << "usage: wcet_serve [options] <program.s | program.c> [more programs...]\n"
        "\n"
        "  --annotations FILE   annotation file applied to every request\n"
        "  --mode NAME          operating mode for mode-scoped annotations\n"
        "  --threads N          shared-pool worker threads, <= 256 (default 1)\n"
        "  --decomposition MODE ipet split: monolithic | recursive\n"
        "  --validate           run the independent validation oracles per request\n"
        "  --repeat N           submit each input N times (default 1); repeats are\n"
        "                       served from the exact-match report cache\n"
        "  --cache-capacity N   report-cache LRU capacity (default 8)\n"
        "  --stats              print server counters after the last request\n"
        "\n"
        "exit codes: 0 all bounds stated, 1 some input got no bound, 2 input error,\n"
        "            3 analysis error, 4 internal error\n";
}

struct CliArgs {
  std::vector<std::string> input_paths;
  std::string annotations_path;
  std::uint64_t repeat = 1;
  bool stats = false;
  wcet::serve::ServeOptions serve;
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
    } else if (arg == "--mode") {
      args.serve.analysis.mode = value_of(i, arg);
    } else if (arg == "--threads") {
      args.serve.analysis.threads = parse_threads(arg, value_of(i, arg));
    } else if (arg == "--decomposition") {
      args.serve.analysis.decomposition = parse_decomposition(arg, value_of(i, arg));
    } else if (arg == "--validate") {
      args.serve.analysis.validate = true;
    } else if (arg == "--repeat") {
      args.repeat = std::max<std::uint64_t>(1, parse_u64(arg, value_of(i, arg)));
    } else if (arg == "--cache-capacity") {
      args.serve.report_cache_capacity =
          static_cast<std::size_t>(parse_u64(arg, value_of(i, arg)));
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw wcet::InputError("unknown flag: " + arg + " (try --help)");
    } else {
      args.input_paths.push_back(arg);
    }
  }
  if (args.input_paths.empty()) {
    throw wcet::InputError("no input file given (try --help)");
  }
  return args;
}

int run(int argc, char** argv) {
  const CliArgs args = parse_args(argc, argv);
  std::string annotations;
  if (!args.annotations_path.empty()) annotations = read_file(args.annotations_path);

  std::vector<wcet::isa::Image> images;
  images.reserve(args.input_paths.size());
  for (const std::string& path : args.input_paths) images.push_back(load_image(path));

  wcet::serve::AnalysisServer server(wcet::mem::typical_hw(), args.serve);
  bool all_ok = true;

  for (std::size_t i = 0; i < images.size(); ++i) {
    wcet::WcetReport report;
    std::uint64_t dirty_before = 0;
    for (std::uint64_t r = 0; r < args.repeat; ++r) {
      dirty_before = server.stats().dirty_instances;
      report = server.submit(images[i], annotations);
    }
    const wcet::serve::ServeStats& stats = server.stats();
    if (images.size() > 1) std::cout << "--- " << args.input_paths[i] << " ---\n";
    std::cout << report.to_string();
    std::cout << "serve: request " << stats.requests << ", fingerprint hits "
              << stats.fingerprint_hits << ", dirty instances "
              << stats.dirty_instances - dirty_before << '\n';
    check_validation(report);
    all_ok = all_ok && report.ok;
  }

  if (args.stats) std::cout << server.stats().to_string();
  return all_ok ? kExitOk : kExitNoBound;
}

} // namespace

int main(int argc, char** argv) {
  return run_classified([&] { return run(argc, argv); });
}
