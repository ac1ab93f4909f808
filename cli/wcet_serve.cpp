// wcet_serve: persistent analysis-server front end (src/serve) with the
// same hardened error boundary and exit codes as wcet_cli:
//
//   0  every analysis completed with a bound stated
//   1  analysis completed, no bound (obstructions listed)
//   2  input error (InputError)
//   3  analysis error, including cancellation and memory exhaustion
//   4  internal error / unclassified exception
//
// One server instance is constructed per process invocation and fed
// every request: `--repeat N` resubmits each input N times (the
// steady-state requests are served from the exact-match report cache),
// `--batch` shards the inputs as one independent fleet across the
// worker pool, and `--stats` dumps the server counters after the last
// request — the text endpoint CI smoke-tests grep.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "serve/analysis_server.hpp"
#include "support/diag.hpp"
#include "wcet/analyzer.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitNoBound = 1;
constexpr int kExitInputError = 2;
constexpr int kExitAnalysisError = 3;
constexpr int kExitInternalError = 4;

void print_usage(std::ostream& os) {
  os << "usage: wcet_serve [options] <program.s | program.c> [more programs...]\n"
        "\n"
        "  --annotations FILE   annotation file applied to every request\n"
        "  --mode NAME          operating mode for mode-scoped annotations\n"
        "  --threads N          worker threads of the shared pool (default 1)\n"
        "  --decomposition MODE ipet split: monolithic | recursive\n"
        "  --validate           run the independent validation oracles per request\n"
        "  --repeat N           submit each input N times (default 1); repeats are\n"
        "                       served from the exact-match report cache\n"
        "  --batch              analyze the inputs as one independent fleet sharded\n"
        "                       across the pool (one worker per job)\n"
        "  --cache-capacity N   report-cache LRU capacity (default 8)\n"
        "  --stats              print server counters after the last request\n"
        "\n"
        "exit codes: 0 all bounds stated, 1 some input got no bound, 2 input error,\n"
        "            3 analysis error, 4 internal error\n";
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
  std::vector<std::string> input_paths;
  std::string annotations_path;
  std::uint64_t repeat = 1;
  bool batch = false;
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
      args.serve.analysis.threads = static_cast<int>(parse_u64(arg, value_of(i, arg)));
    } else if (arg == "--decomposition" || arg == "--ipet-mode") {
      const std::string mode = value_of(i, arg);
      if (mode == "monolithic") {
        args.serve.analysis.decomposition = wcet::analysis::IpetDecomposition::monolithic;
      } else if (mode == "recursive") {
        args.serve.analysis.decomposition = wcet::analysis::IpetDecomposition::recursive;
      } else {
        throw wcet::InputError(arg + " expects monolithic|recursive, got '" + mode + "'");
      }
    } else if (arg == "--validate") {
      args.serve.analysis.validate = true;
    } else if (arg == "--repeat") {
      args.repeat = std::max<std::uint64_t>(1, parse_u64(arg, value_of(i, arg)));
    } else if (arg == "--batch") {
      args.batch = true;
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

wcet::isa::Image load_image(const std::string& path) {
  const std::string source = read_file(path);
  return ends_with(path, ".s") ? wcet::isa::assemble(source)
                               : wcet::mcc::compile_program(source).image;
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

  if (args.batch) {
    std::vector<wcet::serve::BatchJob> jobs(images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      jobs[i].image = &images[i];
      jobs[i].annotation_text = annotations;
    }
    for (std::uint64_t r = 0; r < args.repeat; ++r) {
      const std::vector<wcet::WcetReport> reports = server.submit_batch(jobs);
      if (r + 1 < args.repeat) continue; // print the final round only
      for (std::size_t i = 0; i < reports.size(); ++i) {
        std::cout << "--- " << args.input_paths[i] << " ---\n"
                  << reports[i].to_string();
        all_ok = all_ok && reports[i].ok;
      }
    }
  } else {
    for (std::size_t i = 0; i < images.size(); ++i) {
      wcet::WcetReport report;
      for (std::uint64_t r = 0; r < args.repeat; ++r) {
        report = server.submit(images[i], annotations);
      }
      if (images.size() > 1) std::cout << "--- " << args.input_paths[i] << " ---\n";
      std::cout << report.to_string();
      std::cout << "serve: request " << report.serve_requests << ", fingerprint hits "
                << report.serve_fingerprint_hits << ", dirty instances "
                << report.serve_dirty_instances << '\n';
      all_ok = all_ok && report.ok;
    }
  }

  if (args.stats) std::cout << server.stats().to_string();
  return all_ok ? kExitOk : kExitNoBound;
}

} // namespace

int main(int argc, char** argv) {
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
