// The crown-jewel property test: generate random structured programs,
// compile them with mcc, analyze them statically, and execute them with
// random inputs. Every observed cycle count must fall inside
// [BCET bound, WCET bound], and observed block execution counts must not
// exceed the structural possibilities the ILP allowed.
//
// This is the paper's "soundness" requirement (Section 3) turned into a
// randomized regression: any unsound transfer function, cache update,
// loop bound, or ILP constraint shows up here as a violated containment.
#include <gtest/gtest.h>

#include <sstream>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"
#include "support/rng.hpp"

namespace wcet {
namespace {

// Generates a random mcc program built from bounded counter loops,
// branches over a global input array, small call trees, switches and
// array walks — all constructs the analyzer must bound automatically.
class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "int input[8] = {0, 0, 0, 0, 0, 0, 0, 0};\n";
    os << "int acc = 0;\n";
    const int helpers = 1 + static_cast<int>(rng_.below(3));
    for (int h = 0; h < helpers; ++h) {
      os << "int helper" << h << "(int x) {\n";
      os << body(2, "x");
      os << "  return acc + x;\n}\n";
    }
    os << "int main(void) {\n";
    os << "  int v = input[0];\n";
    for (int h = 0; h < helpers; ++h) {
      if (rng_.below(2) != 0u) os << "  v = helper" << h << "(v);\n";
    }
    os << body(3, "v");
    os << "  return acc;\n}\n";
    return os.str();
  }

private:
  std::string body(int depth, const std::string& var) {
    std::ostringstream os;
    const int statements = 1 + static_cast<int>(rng_.below(3));
    for (int s = 0; s < statements; ++s) {
      switch (rng_.below(depth > 0 ? 5 : 2)) {
      case 0:
        os << "  acc += " << rng_.below(10) << " + " << var << ";\n";
        break;
      case 1:
        os << "  acc ^= (" << var << " >> " << rng_.below(4) << ") + input["
           << rng_.below(8) << "];\n";
        break;
      case 2: { // bounded counter loop
        const std::string i = fresh();
        os << "  { int " << i << "; for (" << i << " = 0; " << i << " < "
           << (2 + rng_.below(6)) << "; " << i << "++) {\n";
        os << body(depth - 1, i);
        os << "  } }\n";
        break;
      }
      case 3: // input-dependent branch
        os << "  if (input[" << rng_.below(8) << "] > " << rng_.below(50) << ") {\n"
           << body(depth - 1, var) << "  } else {\n"
           << body(depth - 1, var) << "  }\n";
        break;
      case 4: { // dense switch over masked input
        os << "  switch (input[" << rng_.below(8) << "] & 3) {\n";
        for (int k = 0; k < 4; ++k) {
          os << "  case " << k << ": acc += " << rng_.below(20) << "; break;\n";
        }
        os << "  }\n";
        break;
      }
      }
    }
    return os.str();
  }

  std::string fresh() { return "i" + std::to_string(counter_++); }

  Rng rng_;
  int counter_ = 0;
};

class RandomProgramSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramSoundness, ObservedWithinBounds) {
  ProgramGenerator generator(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::string source = generator.generate();
  SCOPED_TRACE(source);

  mcc::CompileResult built;
  try {
    built = mcc::compile_program(source);
  } catch (const InputError& e) {
    FAIL() << "generated program failed to compile: " << e.what();
  }

  const mem::HwConfig hw = mem::typical_hw();
  // The input array is written before each run, behind the analyzer's
  // back: declare it volatile-ish via an io region override so the
  // analysis cannot constant-fold the initial zeros.
  const isa::Symbol* input = built.image.find_symbol("input");
  ASSERT_NE(input, nullptr);
  std::ostringstream annotations;
  annotations << "region \"inputs\" at " << input->addr << " size 32 read 2 write 2 io\n";
  const Analyzer analyzer(built.image, hw, annotations.str());
  const WcetReport report = analyzer.analyze();
  ASSERT_TRUE(report.ok) << report.to_string();

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4242);
  for (int run = 0; run < 12; ++run) {
    // Simulate on the analyzer's merged hardware model (the io region
    // override is part of the machine, not just of the analysis).
    sim::Simulator sim(built.image, analyzer.hw());
    // The io region means loads come from the handler.
    std::uint32_t inputs[8];
    for (auto& i : inputs) i = rng.below(100);
    sim.set_mmio_read([&](std::uint32_t addr, int) {
      const std::uint32_t index = (addr - input->addr) / 4;
      return index < 8 ? inputs[index] : 0u;
    });
    const sim::SimResult result = sim.run();
    ASSERT_TRUE(result.completed()) << result.trap_reason;
    ASSERT_LE(result.cycles, report.wcet_cycles)
        << "UNSOUND WCET on run " << run << "\n" << report.to_string();
    ASSERT_GE(result.cycles, report.bcet_cycles)
        << "UNSOUND BCET on run " << run << "\n" << report.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSoundness, ::testing::Range(0, 25));

// Randomized flow caps drive the per-subtree eligibility path: each cap
// pins only the call subtrees it touches, the rest still decompose, and
// the recursive solve must agree bit-identically with the monolithic
// reference — WCET, BCET, status and obstructions. Seeded and
// deterministic; programs are generated large enough for the
// decomposition planner to engage, with helpers called behind
// io-dependent branches so tight caps stay feasible.
class CappedProgramGenerator {
public:
  explicit CappedProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  struct Generated {
    std::string source;
    std::vector<std::string> helper_names;
  };

  Generated generate() {
    Generated out;
    std::ostringstream os;
    os << "int input[8] = {0, 0, 0, 0, 0, 0, 0, 0};\n";
    os << "int data[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};\n";
    const int helpers = 5 + static_cast<int>(rng_.below(4));
    for (int h = 0; h < helpers; ++h) {
      const std::string name = "helper" + std::to_string(h);
      out.helper_names.push_back(name);
      os << "int " << name << "(int x) {\n  int s = x;\n";
      const int loops = 2 + static_cast<int>(rng_.below(3));
      for (int l = 0; l < loops; ++l) {
        os << "  { int i" << l << "; for (i" << l << " = 0; i" << l << " < "
           << (3 + rng_.below(5)) << "; i" << l << "++) { s += data[(s + i" << l
           << ") & 15]; } }\n";
      }
      os << "  return s;\n}\n";
    }
    os << "int main(void) {\n  int v = input[0];\n";
    for (int h = 0; h < helpers; ++h) {
      switch (rng_.below(3)) {
      case 0: // unconditional call
        os << "  v += helper" << h << "(v);\n";
        break;
      case 1: // io-dependent branch: a cap of zero stays feasible
        os << "  if (input[" << rng_.below(8) << "] > " << rng_.below(40) << ") { v += helper"
           << h << "(v); }\n";
        break;
      default: // branch between this helper and the previous one
        os << "  if (input[" << rng_.below(8) << "] > " << rng_.below(40) << ") { v += helper"
           << h << "(v); } else { v += helper" << (h > 0 ? h - 1 : h) << "(v); }\n";
        break;
      }
    }
    os << "  return v;\n}\n";
    out.source = os.str();
    return out;
  }

  Rng& rng() { return rng_; }

private:
  Rng rng_;
};

class RandomFlowCaps : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowCaps, DecomposedMatchesMonolithic) {
  CappedProgramGenerator generator(static_cast<std::uint64_t>(GetParam()) * 6277 + 31);
  const auto generated = generator.generate();
  SCOPED_TRACE(generated.source);
  const auto built = mcc::compile_program(generated.source);

  const isa::Symbol* input = built.image.find_symbol("input");
  ASSERT_NE(input, nullptr);
  std::ostringstream annotations;
  annotations << "region \"inputs\" at " << input->addr << " size 32 read 2 write 2 io\n";
  // Random caps over a random subset of helpers; counts 0..3 so some
  // bind hard (forcing the helper off the worst-case path), some are
  // slack, and every one pins exactly its own subtree.
  Rng& rng = generator.rng();
  const std::size_t caps = 1 + rng.below(3);
  for (std::size_t c = 0; c < caps; ++c) {
    const auto& name = generated.helper_names[rng.below(
        static_cast<std::uint32_t>(generated.helper_names.size()))];
    annotations << "flow at \"" << name << "\" <= " << rng.below(4) << "\n";
  }
  SCOPED_TRACE(annotations.str());

  const Analyzer analyzer(built.image, mem::typical_hw(), annotations.str());
  AnalysisOptions options;
  options.decomposition = analysis::IpetDecomposition::monolithic;
  const WcetReport monolithic = analyzer.analyze(options);
  options.decomposition = analysis::IpetDecomposition::recursive;
  const WcetReport decomposed = analyzer.analyze(options);
  EXPECT_EQ(decomposed.ok, monolithic.ok);
  EXPECT_EQ(decomposed.wcet_cycles, monolithic.wcet_cycles);
  EXPECT_EQ(decomposed.bcet_cycles, monolithic.bcet_cycles);
  EXPECT_EQ(decomposed.obstructions, monolithic.obstructions);

  // No simulation leg here on purpose: flow caps are *trusted* facts,
  // and a random input assignment may violate one (making the computed
  // bound legitimately inapplicable to that run). The property under
  // test is that every decomposition mode trusts them identically.
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowCaps, ::testing::Range(0, 10));

TEST(RandomAsmSoundness, HandWrittenKernels) {
  // A couple of fixed kernels with tricky shapes, validated the same way.
  const char* kernels[] = {
      // Triangular nested loop.
      R"(
        .global _start
_start: movi t0, 0
        movi t2, 0
outer:  mov  t1, zero
inner:  addi t1, t1, 1
        addi t2, t2, 1
        blt  t1, t0, inner
        addi t0, t0, 1
        movi a1, 9
        blt  t0, a1, outer
        halt
)",
      // Early-exit search over a rodata table.
      R"(
        .global _start
_start: movi t0, 0
        movi t2, table
search: slli t1, t0, 2
        add  t1, t1, t2
        lw   t1, 0(t1)
        movi a1, 7
        beq  t1, a1, found
        addi t0, t0, 1
        movi a1, 8
        blt  t0, a1, search
found:  halt
        .rodata
        .global table
table:  .word 1, 9, 4, 7, 2, 8, 5, 7
)",
  };
  for (const char* kernel : kernels) {
    const isa::Image image = isa::assemble(kernel);
    const mem::HwConfig hw = mem::typical_hw();
    const WcetReport report = Analyzer(image, hw).analyze();
    ASSERT_TRUE(report.ok) << report.to_string();
    sim::Simulator sim(image, hw);
    const auto run = sim.run();
    ASSERT_TRUE(run.completed());
    EXPECT_LE(run.cycles, report.wcet_cycles);
    EXPECT_GE(run.cycles, report.bcet_cycles);
  }
}

TEST(HardwareConfigSweep, SoundAcrossCacheGeometries) {
  // The same program must stay inside its bounds for every hardware
  // configuration (caches on/off, different associativities, slow code
  // memory).
  const auto built = mcc::compile_program(R"(
int data[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int main(void) {
  int s = 0;
  int i;
  for (i = 0; i < 16; i++) { s += data[i] * i; }
  return s;
}
)");
  struct Config {
    bool icache, dcache;
    unsigned ways;
  };
  const Config configs[] = {
      {true, true, 2}, {false, true, 2}, {true, false, 2},
      {false, false, 1}, {true, true, 1}, {true, true, 4},
  };
  for (const Config& c : configs) {
    mem::HwConfig hw = mem::typical_hw();
    hw.icache.enabled = c.icache;
    hw.dcache.enabled = c.dcache;
    hw.icache.ways = c.ways;
    hw.dcache.ways = c.ways;
    const WcetReport report = Analyzer(built.image, hw).analyze();
    ASSERT_TRUE(report.ok) << report.to_string();
    sim::Simulator sim(built.image, hw);
    const auto run = sim.run();
    ASSERT_TRUE(run.completed());
    ASSERT_LE(run.cycles, report.wcet_cycles)
        << "icache=" << c.icache << " dcache=" << c.dcache << " ways=" << c.ways;
    ASSERT_GE(run.cycles, report.bcet_cycles);
    EXPECT_EQ(run.exit_code, 706u);
  }
}

} // namespace
} // namespace wcet
