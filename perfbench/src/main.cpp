// wcetbench: the analyzer's end-to-end benchmark (driven by
// perfbench/run.py, which builds it and formats its result).
//
//   wcetbench --workload NAME --seed N --seconds S --trace 0|1
//             [--max-requests N] [--setup-reps N] [--reference FILE]
//             [--trace-out FILE]
//   wcetbench --describe
//   wcetbench --print-references --workload NAME --seed N
//
// Load model: a closed loop with one client; the next request is sent
// when the previous one returns. Every analysis runs with
// threads = min(4, nproc) and the default recursive IPET decomposition.
// The seed drives the generators in workloads.cpp; the library sees only
// the compiled images and the annotation text.
//
// Output: progress on stderr; on stdout one JSON object holding the run
// metadata, the correctness verdict and every metric the run measured
// (the end-to-end metrics with --trace 0, the per-layer metrics of the
// traced run with --trace 1).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cfg/program.hpp"
#include "cfg/supergraph.hpp"
#include "mem/hwmodel.hpp"
#include "serve/analysis_server.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "traced_pipeline.hpp"
#include "wcet/analyzer.hpp"
#include "workloads.hpp"

namespace {

using namespace wcet;
using namespace perfbench;

// ------------------------------------------------------------- catalogue
// The workloads, why each was chosen, and which end-to-end metric each
// layer should move on which workload. `--describe` prints both tables.
struct WorkloadInfo {
  const char* name;
  const char* why;
};
constexpr WorkloadInfo kWorkloads[] = {
    {"wide_cold",
     "64 leaf functions x 3 counted loops at call depth 1 (the BM_analyze_scaling/64 shape, "
     "plus that unseeded program itself); each request constructs an Analyzer and runs "
     "analyze() cold. Cache and value do most of the work, path little (64 depth-1 sub-ILPs)."},
    {"deep_facts_cold",
     "depth-5 binary call tree (62 instances) whose heavy leaf carries a flow cap, so every "
     "subtree is pinned and path analysis solves one fact-constrained ILP with simplex "
     "phase 1; ipet + support/ilp do ~90% of the work. No other workload makes the simplex "
     "dominate."},
    {"serve_edit_mix",
     "one AnalysisServer (default ServeOptions) fed a seeded edit stream over the 64-function "
     "shape: ~70% one-function loop-bound edits (warm path), ~20% resubmissions (report-cache "
     "hit), ~10% layout edits (cold). The only workload that reaches src/serve; requests are "
     "classified by ServeStats deltas."},
};

struct LayerInfo {
  const char* layer;
  const char* calls;
  const char* metrics;
  const char* moves;
};
constexpr LayerInfo kLayers[] = {
    {"mcc", "compile_program", "mcc.compile_ms", "setup_s (all workloads)"},
    {"cfg", "Program::reconstruct, Supergraph::expand, LoopForest, Dominators, rpo_priorities",
     "cfg.decode_ms cfg.sg_nodes cfg.instances",
     "warm_ms_p50 on serve_edit_mix; little on deep_facts_cold"},
    {"analysis/value_analysis", "ValueAnalysis::run", "value.ms value.cpu_ms",
     "warm_ms_p50 on serve_edit_mix, latency_ms_p50 on wide_cold"},
    {"analysis/loop_bounds", "LoopBoundAnalysis::run", "loop.ms loop.bounded_share",
     "latency_ms_p50 on wide_cold; bounded_share < 1 is a precision cliff"},
    {"analysis/transfer_cache", "TransferCache::build_cache_recipes", "recipe.ms",
     "latency_ms_p50 on wide_cold"},
    {"analysis/cache_analysis", "CacheAnalysis::run",
     "cache.ms cache.cpu_ms cache.joins cache.join_skip_share cache.set_image_allocs "
     "cache.live_set_images_peak",
     "latency_ms_p50 and cpu_ms_per_request on wide_cold, peak_rss_mb; little on "
     "deep_facts_cold"},
    {"analysis/pipeline_analysis", "PipelineAnalysis::run", "pipeline.ms",
     "nothing today (<1%); kept so a shift of work into it shows"},
    {"analysis/ipet + support/ilp", "Ipet::solve_both",
     "ipet.ms ipet.cpu_ms ipet.sub_ilps ipet.depth ilp.phase1_pivots ilp.phase2_pivots "
     "ilp.crash_basis_rows ilp.constraints",
     "latency_ms_p50 on deep_facts_cold; slightly on wide_cold"},
    {"wcet", "Analyzer constructor and analyze",
     "wcet.construct_ms wcet.unattributed_ms trace.overhead_ms", "latency_ms_p50 on wide_cold"},
    {"serve", "AnalysisServer::submit, stats()",
     "serve.hit_share serve.warm_share serve.cold_share serve.fallbacks serve.path_reuses "
     "serve.dirty_per_warm serve.overhead_ms serve.warm_{decode,value,cache,path}_ms",
     "warm_ms_p50 and hit_ms_p50 on serve_edit_mix; nothing on the cold workloads"},
};

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kWideFunctions = 64;
constexpr int kWideSeededPrograms = 3;
constexpr int kDeepPrograms = 2;
constexpr int kServeSteps = 40;
constexpr double kSetupFloorS = 2.0;

// ---------------------------------------------------------------- helpers
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Linear interpolation between closest ranks; NaN for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * 0x9E3779B97F4A7C15ull + k;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  long max_requests = 0; // 0: run for `seconds`
  int setup_reps = 5;
  std::string reference;
  std::string trace_out;
  bool describe = false;
  bool print_references = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--describe") {
      args.describe = true;
    } else if (flag == "--print-references") {
      args.print_references = true;
    } else if ((v = value()) == nullptr) {
      std::cerr << "wcetbench: missing value for " << flag << '\n';
      return false;
    } else if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(v) != "0";
    } else if (flag == "--max-requests") {
      args.max_requests = std::strtol(v, nullptr, 10);
    } else if (flag == "--setup-reps") {
      args.setup_reps = std::max(1, std::atoi(v));
    } else if (flag == "--reference") {
      args.reference = v;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else {
      std::cerr << "wcetbench: unknown flag " << flag << '\n';
      return false;
    }
  }
  return true;
}

// Named metrics in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
struct Metrics {
  std::vector<Metric> list;
  void add(const std::string& name, double value, const std::string& unit) {
    list.push_back({name, value, unit});
  }
};

// Pinned reference bounds: lines "<workload> <seed|*> <program> <wcet> <bcet>".
using Pinned = std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;
Pinned load_pinned(const std::string& path, const std::string& workload, std::uint64_t seed) {
  Pinned pinned;
  if (path.empty()) return pinned;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, s, program;
    std::uint64_t wcet = 0, bcet = 0;
    if (!(fields >> w >> s >> program >> wcet >> bcet)) continue;
    if (w != workload || (s != "*" && s != std::to_string(seed))) continue;
    pinned[program] = {wcet, bcet};
  }
  return pinned;
}

// ---------------------------------------------------------------- set-up
struct BenchProgram {
  std::string name;
  std::string source;
  std::string annotations;
  isa::Image image;
  // Reference bounds (pinned, else the threads=1 cold run) and facts
  // from the checks.
  std::uint64_t wcet = 0;
  std::uint64_t bcet = 0;
  int instances = 0;
};

struct Setup {
  std::vector<BenchProgram> programs;
  std::vector<int> steps; // serve_edit_mix: program index per request
  std::unique_ptr<serve::AnalysisServer> server;
  std::vector<double> compile_ms;
};

Setup set_up(const Args& args, const AnalysisOptions& options, Tracer* tracer) {
  Setup s;
  std::vector<DeepShape> deep;
  if (args.workload == "wide_cold") {
    s.programs.push_back({"unseeded64", wide_source(wide_unseeded(kWideFunctions)), "", {}});
    for (int k = 1; k <= kWideSeededPrograms; ++k) {
      const WideShape shape = wide_seeded(derive_seed(args.seed, k), kWideFunctions);
      s.programs.push_back({"seeded" + std::to_string(k), wide_source(shape), "", {}});
    }
  } else if (args.workload == "deep_facts_cold") {
    for (int k = 1; k <= kDeepPrograms; ++k) {
      deep.push_back(deep_seeded(derive_seed(args.seed, k)));
      s.programs.push_back({"deep" + std::to_string(k), deep_source(deep.back()), "", {}});
    }
  } else {
    const ServeStream stream = serve_stream(derive_seed(args.seed, 0), kWideFunctions,
                                            kServeSteps);
    for (std::size_t i = 0; i < stream.images.size(); ++i) {
      s.programs.push_back({"img" + std::to_string(i), wide_source(stream.images[i]), "", {}});
    }
    s.steps = stream.steps;
  }
  for (std::size_t i = 0; i < s.programs.size(); ++i) {
    BenchProgram& p = s.programs[i];
    const std::int64_t t0 = wall_ns();
    {
      Span span(tracer, "mcc.compile", "mcc", -1);
      p.image = compile(p.source);
    }
    s.compile_ms.push_back(ns_to_ms(wall_ns() - t0));
    if (!deep.empty()) p.annotations = deep_annotations(deep[i], p.image);
  }
  // Warm-up: one cold analysis per program, or one pass of the stream
  // through a fresh server.
  if (s.steps.empty()) {
    for (const BenchProgram& p : s.programs) {
      const Analyzer analyzer(p.image, mem::typical_hw(), p.annotations);
      analyzer.analyze(options);
    }
  } else {
    serve::ServeOptions serve_options;
    serve_options.analysis = options;
    s.server = std::make_unique<serve::AnalysisServer>(mem::typical_hw(), serve_options);
    for (const int step : s.steps) {
      const BenchProgram& p = s.programs[static_cast<std::size_t>(step)];
      s.server->submit(p.image, p.annotations);
    }
  }
  return s;
}

// ---------------------------------------------------------------- checks
struct Verdict {
  long attempted = 0;
  long failed = 0;             // threw, !ok, or a non-empty degradation ledger
  long bound_mismatches = 0;   // bounds differ from the program's reference
  long unsound_bounds = 0;     // simulated cycles outside [BCET, WCET]
  long trace_mismatches = 0;   // traced bounds differ from the untraced ones
  double tightness_x1000 = 0;  // max WCET * 1000 / simulated cycles
};

bool same_bounds(const WcetReport& r, const BenchProgram& p) {
  return r.wcet_cycles == p.wcet && r.bcet_cycles == p.bcet;
}

bool report_failed(const WcetReport& r) { return !r.ok || !r.degradations.empty(); }

// Once per run, after set-up: reference bounds at threads=1, the same
// bounds at threads=min(4, nproc), the pinned bounds where recorded, and
// the simulator bracket per distinct program.
void check_programs(Setup& s, const AnalysisOptions& options, const Pinned& pinned,
                    Verdict& verdict) {
  AnalysisOptions sequential = options;
  sequential.threads = 1;
  for (BenchProgram& p : s.programs) {
    try {
      const Analyzer analyzer(p.image, mem::typical_hw(), p.annotations);
      const WcetReport seq = analyzer.analyze(sequential);
      const WcetReport par = analyzer.analyze(options);
      if (report_failed(seq) || report_failed(par)) ++verdict.failed;
      p.wcet = seq.wcet_cycles;
      p.bcet = seq.bcet_cycles;
      if (!same_bounds(par, p)) ++verdict.bound_mismatches;
      const auto pin = pinned.find(p.name);
      if (pin != pinned.end() &&
          (pin->second.first != p.wcet || pin->second.second != p.bcet)) {
        std::cerr << "wcetbench: " << p.name << " bounds " << p.wcet << "/" << p.bcet
                  << " differ from the pinned " << pin->second.first << "/"
                  << pin->second.second << '\n';
        ++verdict.bound_mismatches;
        p.wcet = pin->second.first;
        p.bcet = pin->second.second;
      }
      // The simulated task runs on the analyzer's memory map (annotation
      // regions merged), as the validation replay does.
      sim::Simulator sim(p.image, analyzer.hw());
      const sim::SimResult run = sim.run();
      if (!run.completed() || run.cycles < p.bcet || run.cycles > p.wcet) {
        ++verdict.unsound_bounds;
      } else {
        verdict.tightness_x1000 = std::max(
            verdict.tightness_x1000, static_cast<double>(p.wcet) * 1000.0 /
                                         static_cast<double>(run.cycles));
      }
      const cfg::Program program =
          cfg::Program::reconstruct(p.image, p.image.entry(), cfg::ResolutionHints{});
      p.instances = static_cast<int>(cfg::Supergraph::expand(program).instances().size());
    } catch (const std::exception& e) {
      std::cerr << "wcetbench: check of " << p.name << " threw: " << e.what() << '\n';
      ++verdict.failed;
    }
  }
}

// ------------------------------------------------------------ timed loops
struct RunClock {
  std::int64_t wall0 = wall_ns();
  std::int64_t cpu0 = process_cpu_ns();
  double elapsed_s() const { return static_cast<double>(wall_ns() - wall0) / 1e9; }
};

// Starts the client thread's next request on CPU `request % cpus`: pin
// to that CPU (which migrates the thread there), then restore the full
// mask, so threads the request creates may still use every CPU. On a
// shared host single CPUs slow down for seconds at a time; rotating the
// start CPU keeps one slow CPU from skewing a whole run's median.
void start_on_next_cpu(long request) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  const int cpus = CPU_COUNT(&all);
  if (cpus <= 1) return;
  int pick = static_cast<int>(request % cpus);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all) && pick-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  sched_setaffinity(0, sizeof(one), &one);
  sched_setaffinity(0, sizeof(all), &all);
}

bool keep_going(const Args& args, const RunClock& clock, long done) {
  if (args.max_requests > 0) return done < args.max_requests;
  return clock.elapsed_s() < args.seconds;
}

void add_latency_metrics(Metrics& m, const std::vector<double>& ms, const RunClock& clock) {
  const double wall_s = clock.elapsed_s();
  const double cpu_ms = ns_to_ms(process_cpu_ns() - clock.cpu0);
  const auto n = static_cast<double>(ms.size());
  m.add("latency_ms_p50", median(ms), "ms");
  m.add("latency_ms_p90", quantile(ms, 0.9), "ms");
  m.add("requests_per_s", n / wall_s, "1/s");
  m.add("cpu_ms_per_request", cpu_ms / n, "ms");
  m.add("samples", n, "count");
}

// Per-request layer readings of the traced run, keyed by metric name;
// each metric reports the median over the requests that have it.
using Sample = std::map<std::string, double>;

// Every per-layer metric in print order, with its unit.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"cfg.decode_ms", "ms"},          {"cfg.sg_nodes", "count"},
    {"cfg.instances", "count"},       {"value.ms", "ms"},
    {"value.cpu_ms", "ms"},           {"loop.ms", "ms"},
    {"loop.bounded_share", "share"},  {"recipe.ms", "ms"},
    {"cache.ms", "ms"},               {"cache.cpu_ms", "ms"},
    {"cache.joins", "count"},         {"cache.join_skip_share", "share"},
    {"cache.set_image_allocs", "count"}, {"cache.live_set_images_peak", "count"},
    {"pipeline.ms", "ms"},            {"ipet.ms", "ms"},
    {"ipet.cpu_ms", "ms"},            {"ipet.sub_ilps", "count"},
    {"ipet.depth", "count"},          {"ilp.phase1_pivots", "count"},
    {"ilp.phase2_pivots", "count"},   {"ilp.crash_basis_rows", "count"},
    {"ilp.constraints", "count"},     {"wcet.construct_ms", "ms"},
    {"wcet.unattributed_ms", "ms"},   {"trace.layer_share", "share"},
    {"serve.overhead_ms", "ms"},      {"serve.warm_decode_ms", "ms"},
    {"serve.warm_value_ms", "ms"},    {"serve.warm_cache_ms", "ms"},
    {"serve.warm_path_ms", "ms"},
};

void add_layer_medians(Metrics& m, const std::vector<Sample>& samples) {
  for (const auto& [name, unit] : kLayerMetrics) {
    std::vector<double> values;
    for (const Sample& sample : samples) {
      const auto it = sample.find(name);
      if (it != sample.end()) values.push_back(it->second);
    }
    if (!values.empty()) m.add(name, median(values), unit);
  }
}

double share_of(double part, double whole) { return whole == 0 ? 0 : part / whole; }

// Structural counts at the layer boundaries; the same keys whether they
// come from the traced layer calls or from a server report.
void add_counts(Sample& s, double sg_nodes, double loops, double bounded, double joins,
                double skips, double allocs, double peak, double sub_ilps, double depth,
                double phase1, double phase2, double crash, double constraints) {
  s["cfg.sg_nodes"] = sg_nodes;
  s["loop.bounded_share"] = loops == 0 ? 1.0 : bounded / loops;
  s["cache.joins"] = joins;
  s["cache.join_skip_share"] = share_of(skips, joins + skips);
  s["cache.set_image_allocs"] = allocs;
  s["cache.live_set_images_peak"] = peak;
  s["ipet.sub_ilps"] = sub_ilps;
  s["ipet.depth"] = depth;
  s["ilp.phase1_pivots"] = phase1;
  s["ilp.phase2_pivots"] = phase2;
  s["ilp.crash_basis_rows"] = crash;
  s["ilp.constraints"] = constraints;
}

double phase_sum(const PhaseTimings& t) {
  return t.decode_ms + t.value_ms + t.loop_ms + t.cache_ms + t.pipeline_ms + t.path_ms;
}

// wide_cold / deep_facts_cold. Untraced: each request constructs an
// Analyzer and runs analyze(). Traced: requests alternate between the
// span-wrapped layer calls (traced_pipeline.cpp) and the untraced call
// on the same program; the untraced half gives the trace overhead and
// analyze()'s own unattributed time (its wall time minus its phases).
void run_cold(const Args& args, const AnalysisOptions& options, Setup& s, Tracer* tracer,
              Verdict& verdict, Metrics& m) {
  const mem::HwConfig hw = mem::typical_hw();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<Sample> samples;
  const RunClock clock;
  long done = 0;
  while (keep_going(args, clock, done)) {
    const bool traced = tracer != nullptr && done % 2 == 0;
    const std::size_t pick = static_cast<std::size_t>(tracer != nullptr ? done / 2 : done);
    const BenchProgram& p = s.programs[pick % s.programs.size()];
    const auto request = static_cast<int>(done);
    // A traced request and its untraced twin start on the same CPU, so
    // trace.overhead_ms does not pick up a speed difference between CPUs.
    start_on_next_cpu(static_cast<long>(pick));
    ++done;
    ++verdict.attempted;
    const std::int64_t t0 = wall_ns();
    try {
      if (traced) {
        const TracedOutcome out =
            traced_analyze(p.image, hw, p.annotations, options, *tracer, request);
        const double wall = ns_to_ms(wall_ns() - t0);
        traced_ms.push_back(wall);
        if (!out.ok || out.degraded) ++verdict.failed;
        if (out.wcet_cycles != p.wcet || out.bcet_cycles != p.bcet) {
          ++verdict.bound_mismatches;
          ++verdict.trace_mismatches;
        }
        Sample sample;
        double layers = 0;
        for (const auto& [layer, t] : tracer->self_times(request)) {
          if (layer == "request") continue; // the root's own time is in no layer
          layers += t.ms;
          std::string key = layer + ".ms";
          if (layer == "cfg") key = "cfg.decode_ms";
          if (layer == "wcet") key = "wcet.construct_ms";
          sample[key] = t.ms;
          if (layer == "value" || layer == "cache" || layer == "ipet") {
            sample[layer + ".cpu_ms"] = t.cpu_ms;
          }
        }
        sample["trace.layer_share"] = layers / wall;
        const LayerCounts& c = out.counts;
        sample["cfg.instances"] = c.instances;
        add_counts(sample, c.sg_nodes, c.loops, c.bounded_loops, double(c.cache_joins),
                   double(c.cache_join_skips), double(c.set_image_allocs),
                   double(c.live_set_images_peak), c.sub_ilps, c.ipet_depth,
                   double(c.phase1_pivots), double(c.phase2_pivots), double(c.crash_basis_rows),
                   c.ilp_constraints);
        samples.push_back(std::move(sample));
      } else {
        WcetReport report;
        {
          const Analyzer analyzer(p.image, hw, p.annotations);
          report = analyzer.analyze(options);
        }
        untraced_ms.push_back(ns_to_ms(wall_ns() - t0));
        if (tracer != nullptr) {
          samples.push_back(
              {{"wcet.unattributed_ms", report.timings.total_ms - phase_sum(report.timings)}});
        }
        if (report_failed(report)) ++verdict.failed;
        if (!same_bounds(report, p)) ++verdict.bound_mismatches;
      }
    } catch (const std::exception& e) {
      std::cerr << "wcetbench: request " << request << " threw: " << e.what() << '\n';
      ++verdict.failed;
    }
  }

  if (tracer == nullptr) {
    add_latency_metrics(m, untraced_ms, clock);
    return;
  }
  add_layer_medians(m, samples);
  m.add("trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms");
  // A cold workload never reaches the server: every request is a cold
  // pipeline run, with no hits, warm runs, fallbacks or reuse.
  m.add("serve.hit_share", 0, "share");
  m.add("serve.warm_share", 0, "share");
  m.add("serve.cold_share", 1, "share");
  m.add("serve.fallbacks", 0, "count");
  m.add("serve.path_reuses", 0, "count");
  m.add("serve.dirty_per_warm", 0, "count");
}

// Request outcome classes, from ServeStats deltas.
enum class Outcome { hit, warm, fallback, cold };

// serve_edit_mix. Each request is one submit() of the next stream image.
// Traced: every other request runs inside a span, and the per-layer
// numbers come from the server's own per-phase timings and report
// counters of warm requests.
void run_serve(const Args& args, Setup& s, Tracer* tracer, Verdict& verdict, Metrics& m) {
  serve::AnalysisServer& server = *s.server;
  std::vector<double> all_ms;
  std::map<Outcome, std::vector<double>> class_ms;
  std::vector<double> warm_traced_ms;
  std::vector<double> warm_untraced_ms;
  std::vector<Sample> samples;
  long fallbacks = 0;
  long path_reuses = 0;
  long warm_dirty = 0;
  const RunClock clock;
  long done = 0;
  std::size_t step = 0;
  while (keep_going(args, clock, done)) {
    const BenchProgram& p = s.programs[static_cast<std::size_t>(s.steps[step])];
    step = (step + 1) % s.steps.size();
    const bool traced = tracer != nullptr && done % 2 == 0;
    const auto request = static_cast<int>(done);
    start_on_next_cpu(tracer != nullptr ? done / 2 : done);
    ++done;
    ++verdict.attempted;
    const serve::ServeStats before = server.stats();
    const std::int64_t t0 = wall_ns();
    WcetReport report;
    try {
      Span root(traced ? tracer : nullptr, "request", "request", request);
      Span span(traced ? tracer : nullptr, "serve.submit", "serve", request);
      report = server.submit(p.image, p.annotations);
    } catch (const std::exception& e) {
      std::cerr << "wcetbench: request " << request << " threw: " << e.what() << '\n';
      ++verdict.failed;
      continue;
    }
    const double wall = ns_to_ms(wall_ns() - t0);
    const serve::ServeStats& after = server.stats();
    Outcome outcome = Outcome::cold;
    if (after.fingerprint_hits > before.fingerprint_hits) {
      outcome = Outcome::hit;
    } else if (after.warm_runs > before.warm_runs) {
      outcome = after.warm_fallbacks > before.warm_fallbacks ? Outcome::fallback : Outcome::warm;
    }
    fallbacks += static_cast<long>(after.warm_fallbacks - before.warm_fallbacks);
    path_reuses += static_cast<long>(after.path_reuses - before.path_reuses);
    all_ms.push_back(wall);
    class_ms[outcome].push_back(wall);
    if (report_failed(report)) ++verdict.failed;
    if (!same_bounds(report, p)) ++verdict.bound_mismatches;
    if (tracer != nullptr && outcome != Outcome::hit) {
      samples.push_back({{"serve.overhead_ms", wall - report.timings.total_ms}});
    }
    if (outcome != Outcome::warm) continue;
    warm_dirty += static_cast<long>(after.dirty_instances - before.dirty_instances);
    if (tracer == nullptr) continue;
    (traced ? warm_traced_ms : warm_untraced_ms).push_back(wall);
    const PhaseTimings& t = report.timings;
    Sample sample{{"cfg.decode_ms", t.decode_ms},   {"value.ms", t.value_ms},
                  {"loop.ms", t.loop_ms},           {"cache.ms", t.cache_ms},
                  {"pipeline.ms", t.pipeline_ms},   {"ipet.ms", t.path_ms},
                  {"wcet.unattributed_ms", t.total_ms - phase_sum(t)},
                  {"serve.warm_decode_ms", t.decode_ms}, {"serve.warm_value_ms", t.value_ms},
                  {"serve.warm_cache_ms", t.cache_ms}, {"serve.warm_path_ms", t.path_ms},
                  {"cfg.instances", p.instances}};
    add_counts(sample, report.sg_nodes, report.loop_count, report.bounded_loops,
               double(report.cache_joins), double(report.cache_join_skips),
               double(report.set_image_allocs), double(report.live_set_images_peak),
               report.ipet_sub_ilps, report.ipet_depth, double(report.phase1_pivots),
               double(report.phase2_pivots), double(report.crash_basis_rows),
               report.ilp_constraints);
    samples.push_back(std::move(sample));
  }

  const auto n = static_cast<double>(all_ms.size());
  const auto share = [&](Outcome o) { return static_cast<double>(class_ms[o].size()) / n; };
  if (tracer == nullptr) {
    add_latency_metrics(m, all_ms, clock);
    m.add("hit_ms_p50", median(class_ms[Outcome::hit]), "ms");
    m.add("warm_ms_p50", median(class_ms[Outcome::warm]), "ms");
    m.add("cold_ms_p50", median(class_ms[Outcome::cold]), "ms");
    m.add("hit_share", share(Outcome::hit), "share");
    m.add("warm_share", share(Outcome::warm), "share");
    m.add("cold_share", share(Outcome::cold), "share");
    m.add("fallback_share", share(Outcome::fallback), "share");
    return;
  }
  add_layer_medians(m, samples);
  m.add("trace.overhead_ms", median(warm_traced_ms) - median(warm_untraced_ms), "ms");
  m.add("serve.hit_share", share(Outcome::hit), "share");
  m.add("serve.warm_share", share(Outcome::warm), "share");
  m.add("serve.cold_share", share(Outcome::cold), "share");
  m.add("serve.fallbacks", static_cast<double>(fallbacks), "count");
  m.add("serve.path_reuses", static_cast<double>(path_reuses), "count");
  const auto warm_count = static_cast<double>(class_ms[Outcome::warm].size());
  m.add("serve.dirty_per_warm", share_of(double(warm_dirty), warm_count), "count");
}

// ---------------------------------------------------------------- output
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << std::setprecision(17) << v;
  } else {
    os << "null";
  }
}

void describe(std::ostream& os) {
  os << "{\"workloads\": [";
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    os << (i ? ", " : "") << "{\"name\": \"" << kWorkloads[i].name << "\", \"why\": \""
       << json_escape(kWorkloads[i].why) << "\"}";
  }
  os << "], \"layers\": [";
  for (std::size_t i = 0; i < std::size(kLayers); ++i) {
    const LayerInfo& l = kLayers[i];
    os << (i ? ", " : "") << "{\"layer\": \"" << l.layer << "\", \"calls\": \""
       << json_escape(l.calls) << "\", \"metrics\": \"" << l.metrics << "\", \"moves\": \""
       << json_escape(l.moves) << "\"}";
  }
  os << "]}\n";
}

int run(const Args& args) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  AnalysisOptions options;
  options.threads = static_cast<int>(std::min(4u, cpus));
  const Pinned pinned = load_pinned(args.reference, args.workload, args.seed);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();

  // Set-up, repeated at least `setup_reps` times and for at least
  // kSetupFloorS seconds, each repetition starting on the next CPU, so
  // the median of a short set-up does not rest on one CPU's speed in one
  // second. The last repetition's programs and server are kept.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  Setup s;
  for (int rep = 0; rep < args.setup_reps || setup_total_s < kSetupFloorS; ++rep) {
    start_on_next_cpu(rep);
    s = Setup{};
    const std::int64_t t0 = wall_ns();
    s = set_up(args, options, tracer.get());
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }

  Verdict verdict;
  check_programs(s, options, pinned, verdict);
  if (args.print_references) {
    for (const BenchProgram& p : s.programs) {
      std::cout << args.workload << ' ' << args.seed << ' ' << p.name << ' ' << p.wcet << ' '
                << p.bcet << '\n';
    }
    return 0;
  }

  Metrics m;
  if (s.server != nullptr) {
    run_serve(args, s, tracer.get(), verdict, m);
  } else {
    run_cold(args, options, s, tracer.get(), verdict, m);
  }
  m.add("mcc.compile_ms", median(s.compile_ms), "ms");
  if (!args.trace) m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("failed_share",
        verdict.attempted == 0 ? 1.0 : double(verdict.failed) / double(verdict.attempted),
        "share");
  m.add("bound_mismatches", static_cast<double>(verdict.bound_mismatches), "count");
  m.add("unsound_bounds", static_cast<double>(verdict.unsound_bounds), "count");
  m.add("tightness_x1000", verdict.tightness_x1000, "count");
  m.add("programs", static_cast<double>(s.programs.size()), "count");

  if (tracer != nullptr && !args.trace_out.empty() &&
      !tracer->write_chrome_trace(args.trace_out)) {
    std::cerr << "wcetbench: cannot write " << args.trace_out << '\n';
    return 1;
  }

  const bool correct = verdict.attempted > 0 && verdict.failed == 0 &&
                       verdict.bound_mismatches == 0 && verdict.unsound_bounds == 0;
  std::ostringstream os;
  os << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
     << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"meta\": {\"num_cpus\": " << cpus
     << ", \"threads\": " << options.threads << ", \"build_type\": \"" << WCETBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << WCETBENCH_COMPILER << "\", \"trace_mismatches\": "
     << verdict.trace_mismatches << "}, \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << verdict.attempted << ", \"failed\": " << verdict.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.list.size(); ++i) {
    os << (i ? ", " : "") << '"' << m.list[i].name << "\": {\"value\": ";
    print_number(os, m.list[i].value);
    os << ", \"unit\": \"" << m.list[i].unit << "\"}";
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // Timing a non-optimized build would make every number meaningless.
  if (std::strcmp(WCETBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "wcetbench: refusing to run a " << WCETBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.describe) {
    describe(std::cout);
    return 0;
  }
  bool known = false;
  for (const WorkloadInfo& w : kWorkloads) known = known || args.workload == w.name;
  if (!known) {
    std::cerr << "wcetbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "wcetbench: " << e.what() << '\n';
    return 1;
  }
}
