// Seeded program generators for the benchmark workloads.
//
// A shape plus a seed gives mcc source text and annotation text; the
// analyzer only ever sees the compiled image and that text. Every
// generator is a pure function of its parameters, and the parameters are
// a pure function of the seed (wcet::Rng), so one seed always yields the
// same programs on every host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/image.hpp"

namespace perfbench {

// One counted loop: `for (i = 0; i < iters * stride; i += stride)`,
// walking the shared data array. `stride` is the counter step and the
// array stride at once.
struct CountedLoop {
  int iters = 4;
  int stride = 1;
};

// The wide shape: `functions` leaf functions with three counted loops
// each, all called once from main (call depth 1) -- the
// BM_analyze_scaling/64 shape. `extra` adds one statement to the
// function, which moves every later function: the layout edit of the
// serving stream.
struct WideFunction {
  CountedLoop loops[3];
  bool extra = false;
};
struct WideShape {
  std::vector<WideFunction> functions;
};

// The unseeded BM_analyze_scaling shape (iters 4, 5, 6; stride 1).
WideShape wide_unseeded(int functions);
// Loop bounds and strides drawn from the seed.
WideShape wide_seeded(std::uint64_t seed, int functions);
std::string wide_source(const WideShape& shape);

// The deep shape: a binary call tree of depth 5. Levels 1..3 call the
// next level twice; level 4 runs a counted loop and then calls either
// the heavy leaf `leaf` or the light leaf `lite`, depending on an
// io-backed input word the analyzer cannot fold (62 instances below
// main). A flow cap on `leaf` pins every subtree, so path analysis
// solves one fact-constrained ILP and simplex phase 1 runs. The cap is
// above the number of `leaf` call sites (16), so the WCET path is the
// same as without it and no run of the task can exceed it. A cap of
// exactly 16 binds and costs the solver extra pivots and memory, which
// would make the workload's cost depend on the seed.
struct DeepShape {
  int f4_iters = 3;   // counted loop of level 4
  int leaf_iters = 6; // heavy leaf: two loops of this bound
  int lite_iters = 2; // light leaf: one loop
  int threshold = 4;  // branch: input[k] > threshold
  int leaf_cap = 17;  // flow at "leaf" <= leaf_cap
};
DeepShape deep_seeded(std::uint64_t seed);
std::string deep_source(const DeepShape& shape);
// The io-region line for the compiled `input` array plus the flow cap.
// The simulator reads io words as 0, so the heavy leaf never runs in the
// simulated task.
std::string deep_annotations(const DeepShape& shape, const wcet::isa::Image& image);

// One cycle of the serving stream over the wide shape: the distinct
// images, and the image each request submits. Request kinds are drawn
// as 70% one-function loop-bound edits (same code layout), 20%
// resubmissions of one of the last three images, and 10% layout edits
// (one function gains or loses a statement, so every later function
// moves). Layout edits come in on/off pairs, so the cycle ends on the
// layout it started from and can be replayed.
struct ServeStream {
  std::vector<WideShape> images;
  std::vector<int> steps; // index into `images`, one per request
};
ServeStream serve_stream(std::uint64_t seed, int functions, int steps);

// Compile `source` with the default mcc options (throws InputError).
wcet::isa::Image compile(const std::string& source);

} // namespace perfbench
