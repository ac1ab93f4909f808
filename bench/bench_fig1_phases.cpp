// FIG1 — Figure 1 of the paper: "Phases of WCET computation".
//
// Runs every phase of the analyzer on a reference task (a CAN-style
// message handler compiled with mcc) and prints the phase pipeline with
// the artifact each phase produces — the data stations of the figure:
// decoding -> CFG; loop/value analysis -> annotated CFG; cache/pipeline
// analysis -> timing information; path analysis -> WCET bound.
// google-benchmark measures each phase's runtime.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "analysis/loop_bounds.hpp"
#include "analysis/pipeline_analysis.hpp"
#include "analysis/ipet.hpp"
#include "cfg/domloop.hpp"
#include "cfg/program.hpp"
#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

namespace {

using namespace wcet;

const char* reference_task = R"(
int rx_buffer[16];
int checksum_table[8] = {3, 7, 11, 19, 23, 31, 43, 57};

int checksum(int* data, int words) {
  int acc = 0;
  int i;
  for (i = 0; i < words; i++) {
    acc += data[i] * checksum_table[i & 7];
  }
  return acc;
}

int handle_message(int kind) {
  int total = 0;
  switch (kind & 3) {
  case 0: total = checksum(rx_buffer, 4); break;
  case 1: total = checksum(rx_buffer, 8); break;
  case 2: total = checksum(rx_buffer, 16); break;
  case 3: total = 0; break;
  }
  return total;
}

int main(void) {
  int sum = 0;
  int k;
  for (k = 0; k < 4; k++) {
    sum += handle_message(k);
  }
  return sum;
}
)";

struct Phases {
  isa::Image image;
  mem::HwConfig hw = mem::typical_hw();
  std::unique_ptr<cfg::Program> program;
  std::unique_ptr<cfg::Supergraph> sg;
  std::unique_ptr<cfg::LoopForest> forest;
  std::unique_ptr<cfg::Dominators> doms;
  std::unique_ptr<analysis::ValueAnalysis> values;
  std::vector<analysis::LoopBoundResult> bounds;
  std::unique_ptr<analysis::CacheAnalysis> caches;
  std::unique_ptr<analysis::PipelineAnalysis> pipeline;
  analysis::IpetResult wcet;

  Phases() : image(mcc::compile_program(reference_task).image) {}

  void decode() {
    program = std::make_unique<cfg::Program>(
        cfg::Program::reconstruct(image, image.entry()));
    sg = std::make_unique<cfg::Supergraph>(cfg::Supergraph::expand(*program));
    forest = std::make_unique<cfg::LoopForest>(*sg);
    doms = std::make_unique<cfg::Dominators>(*sg);
  }
  void value() {
    values = std::make_unique<analysis::ValueAnalysis>(*sg, *forest, hw.memory);
    values->run();
  }
  void loop_bounds() {
    analysis::LoopBoundAnalysis analysis(*sg, *forest, *doms, *values);
    bounds = analysis.run();
  }
  void cache() {
    caches = std::make_unique<analysis::CacheAnalysis>(*sg, *forest, *values, hw.memory,
                                                       hw.icache, hw.dcache);
    caches->run();
  }
  void pipe() {
    pipeline = std::make_unique<analysis::PipelineAnalysis>(*sg, *values, *caches, hw);
    pipeline->run();
  }
  void path() {
    analysis::Ipet ipet(*sg, *forest, *values, *pipeline);
    analysis::IpetOptions options;
    for (const auto& r : bounds) {
      if (r.bound) options.loop_bounds[r.loop_id] = *r.bound;
    }
    wcet = ipet.solve_both(options).first;
  }
};

void BM_phase_decoding(benchmark::State& state) {
  Phases p;
  for (auto _ : state) p.decode();
}
BENCHMARK(BM_phase_decoding);

void BM_phase_loop_value(benchmark::State& state) {
  Phases p;
  p.decode();
  for (auto _ : state) {
    p.value();
    p.loop_bounds();
  }
}
BENCHMARK(BM_phase_loop_value);

void BM_phase_cache_pipeline(benchmark::State& state) {
  Phases p;
  p.decode();
  p.value();
  p.loop_bounds();
  for (auto _ : state) {
    p.cache();
    p.pipe();
  }
}
BENCHMARK(BM_phase_cache_pipeline);

void BM_phase_path(benchmark::State& state) {
  Phases p;
  p.decode();
  p.value();
  p.loop_bounds();
  p.cache();
  p.pipe();
  for (auto _ : state) p.path();
}
BENCHMARK(BM_phase_path);

void print_pipeline() {
  Phases p;
  std::printf("\n=== FIG1: phases of WCET computation (paper Figure 1) ===\n\n");
  std::printf("  Input Executable (%zu sections, entry %s)\n", p.image.sections().size(),
              p.image.describe(p.image.entry()).c_str());

  p.decode();
  int blocks = 0;
  for (const auto& [addr, fn] : p.program->functions()) {
    blocks += static_cast<int>(fn.blocks.size());
  }
  std::printf("       |\n       v\n");
  std::printf("  [Decoding Phase]       -> Control-flow Graph: %zu functions, %d blocks; "
              "supergraph %zu nodes / %zu edges (%zu contexts)\n",
              p.program->functions().size(), blocks, p.sg->nodes().size(),
              p.sg->edges().size(), p.sg->instances().size());

  p.value();
  p.loop_bounds();
  int bounded = 0;
  for (const auto& r : p.bounds) {
    if (r.bound) ++bounded;
  }
  std::printf("       |\n       v\n");
  std::printf("  [Loop/Value Analysis]  -> Annotated CFG: %zu loops, %d bounded "
              "automatically, 0 irreducible\n",
              p.bounds.size(), bounded);
  for (const auto& r : p.bounds) {
    if (r.bound) std::printf("        loop bound %llu: %s\n",
                             static_cast<unsigned long long>(*r.bound), r.detail.c_str());
  }

  p.cache();
  p.pipe();
  const auto stats = p.caches->stats();
  std::printf("       |\n       v\n");
  std::printf("  [Cache+Pipeline]       -> Timing Information: ifetch AH/AM/NC/UC = "
              "%u/%u/%u/%u, data AH/AM/NC/UC = %u/%u/%u/%u, %u persistent\n",
              stats.fetch_hit, stats.fetch_miss, stats.fetch_nc, stats.fetch_uncached,
              stats.data_hit, stats.data_miss, stats.data_nc, stats.data_uncached,
              stats.persistent);

  p.path();
  std::printf("       |\n       v\n");
  std::printf("  [Path Analysis]        -> WCET Bound: %llu cycles (ILP: %d variables, "
              "%d constraints)\n",
              static_cast<unsigned long long>(p.wcet.bound), p.wcet.variables,
              p.wcet.constraints);

  // Cross-check against the simulator (the bound must cover the run).
  sim::Simulator sim(p.image, p.hw);
  const auto run = sim.run();
  std::printf("\n  simulator cross-check: observed %llu cycles <= bound %llu : %s\n",
              static_cast<unsigned long long>(run.cycles),
              static_cast<unsigned long long>(p.wcet.bound),
              run.cycles <= p.wcet.bound ? "PASS" : "FAIL");
}

} // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_pipeline();
  return 0;
}
