// The paper's case studies, each on its own mcc-compiled program:
// Figure 1's phase pipeline, the Section 4.2 MISRA-C:2004 rule study and
// the Section 4.3 studies of operating modes, error handling,
// data-dependent buffers and imprecise memory accesses. Every stated
// bound is pinned exactly and checked against the cycle-accurate
// simulator (the observed cycles of a run never exceed the WCET bound),
// so a precision change and an unsound bound both fail here.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/toolkit.hpp"
#include "mcc/runtime.hpp"

namespace wcet {
namespace {

using Mmio = std::function<std::uint32_t(std::uint32_t addr)>;

// Analyzes `image` under `annotations`, pins the WCET bound, and runs
// the task once on the analyzer's machine with io reads answered by
// `mmio`: the run must finish within the bound.
WcetReport expect_pinned_and_sound(const isa::Image& image, const std::string& annotations,
                                   std::uint64_t wcet, const Mmio& mmio = {},
                                   const AnalysisOptions& options = {}) {
  const Analyzer analyzer(image, mem::typical_hw(), annotations);
  const WcetReport report = analyzer.analyze(options);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.wcet_cycles, wcet);
  sim::Simulator sim(image, analyzer.hw());
  if (mmio) sim.set_mmio_read([&](std::uint32_t addr, int) { return mmio(addr); });
  const sim::SimResult run = sim.run();
  EXPECT_TRUE(run.completed()) << run.trap_reason;
  EXPECT_LE(run.cycles, report.wcet_cycles);
  return report;
}

std::string io_region(const isa::Image& image, const char* symbol, int size) {
  std::ostringstream os;
  os << "region \"" << symbol << "\" at " << image.find_symbol(symbol)->addr << " size "
     << size << " read 2 write 2 io\n";
  return os.str();
}

// "loop at <header> max <bound>" for every loop the report left unbounded.
std::string bound_open_loops(const WcetReport& report, int bound) {
  std::ostringstream os;
  for (const LoopInfo& loop : report.loops) {
    if (!loop.used_bound) os << "loop at " << loop.header_addr << " max " << bound << '\n';
  }
  return os.str();
}

// Figure 1: a CAN-style message handler through every phase.
TEST(PaperStudies, Figure1PhaseArtifacts) {
  const auto built = mcc::compile_program(R"(
int rx_buffer[16];
int checksum_table[8] = {3, 7, 11, 19, 23, 31, 43, 57};

int checksum(int* data, int words) {
  int acc = 0;
  int i;
  for (i = 0; i < words; i++) { acc += data[i] * checksum_table[i & 7]; }
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
  for (k = 0; k < 4; k++) { sum += handle_message(k); }
  return sum;
}
)");
  const WcetReport report = expect_pinned_and_sound(built.image, "", 7014);
  EXPECT_EQ(report.functions, 4);
  EXPECT_EQ(report.blocks, 25);
  EXPECT_EQ(report.sg_nodes, 35);
  EXPECT_EQ(report.sg_edges, 42);
  EXPECT_EQ(report.loop_count, 4);
  EXPECT_EQ(report.bounded_loops, 4);
  EXPECT_EQ(report.irreducible_loops, 0);
}

// Section 4.2: for each MISRA rule the paper discusses, a violating and
// a conforming variant. The checker must flag exactly the violating
// one. `auto_bounded` says whether the analyzer bounds the variant
// without annotations; where it does not, the rule's rescue annotation
// plus "max 64" at every unbounded loop header is added, as a user
// would. `wcet` is the resulting bound, 0 when even that yields none.
struct Variant {
  const char* source;
  bool auto_bounded;
  int irreducible;
  std::uint64_t wcet;
};

struct RuleStudy {
  const char* rule;
  const char* rescue;
  Variant violating;
  Variant conforming;
};

const RuleStudy rule_studies[] = {
    {"13.4", "", // float loop condition defeats loop-bound detection
     {R"(int main(void) {
  float f; int n = 0;
  for (f = 0.0f; f < 16.0f; f = f + 1.0f) { n += 3; }
  return n;
})",
      false, 0, 241787},
     {R"(int main(void) {
  int i; int n = 0;
  for (i = 0; i < 16; i++) { n += 3; }
  return n;
})",
      true, 0, 355}},
    {"13.6", "", // counter modified in body defeats the counter pattern
     {R"(int main(void) {
  int i; int n = 0;
  for (i = 0; i < 16; i++) { n += i; if (n > 1000) { i = i + 1; } }
  return n;
})",
      false, 0, 1893},
     {R"(int main(void) {
  int i; int n = 0;
  for (i = 0; i < 16; i++) { n += i; }
  return n;
})",
      true, 0, 419}},
    {"14.1", "", // unreachable code after a return costs nothing here
     {R"(int check(int x) {
  return x * 2;
  x = x + 100;   /* unreachable */
  return x;
}
int main(void) { return check(21); })",
      true, 0, 152},
     {R"(int check(int x) { return x * 2; }
int main(void) { return check(21); })",
      true, 0, 152}},
    {"14.4", "", // goto builds an irreducible loop: no automatic bound
     {R"(int flag = 1;
int main(void) {
  int i = 0; int s = 0;
  if (flag) goto mid;
head:
  s += 2;
mid:
  s += i;
  i++;
  if (i < 12) goto head;
  return s;
})",
      false, 1, 993},
     {R"(int main(void) {
  int i; int s = 0;
  for (i = 0; i < 12; i++) { s += i + 2; }
  return s;
})",
      true, 0, 523}},
    {"14.5", "", // continue only adds back edges: a style rule
     {R"(int main(void) {
  int i; int s = 0;
  for (i = 0; i < 16; i++) { if ((i & 1) == 0) continue; s += i; }
  return s;
})",
      true, 0, 970},
     {R"(int main(void) {
  int i; int s = 0;
  for (i = 0; i < 16; i++) { if ((i & 1) != 0) { s += i; } }
  return s;
})",
      true, 0, 938}},
    {"16.1", "", // varargs: bounded only because the count is a constant
     {R"(int sum_all(int count, ...) {
  int* ap = __va_start();
  int s = 0; int i;
  for (i = 0; i < count; i++) { s += ap[i]; }
  return s;
}
int main(void) { return sum_all(4, 1, 2, 3, 4); })",
      true, 0, 408},
     {R"(int sum4(int a, int b, int c, int d) { return a + b + c + d; }
int main(void) { return sum4(1, 2, 3, 4); })",
      true, 0, 252}},
    {"16.2", "recursion \"fac\" max 6\n", // recursion needs a depth annotation
     {R"(int fac(int n) {
  if (n < 2) { return 1; }
  return n * fac(n - 1);
}
int main(void) { return fac(6); })",
      false, 0, 641},
     {R"(int fac(int n) {
  int r = 1; int i;
  for (i = 2; i <= n; i++) { r *= i; }
  return r;
}
int main(void) { return fac(6); })",
      true, 0, 264}},
    {"20.4", "", // heap addresses are statically unknown
     {R"(int main(void) {
  int* buf = (int*)malloc(32);
  int i; int s = 0;
  for (i = 0; i < 8; i++) { buf[i] = i; }
  for (i = 0; i < 8; i++) { s += buf[i]; }
  return s;
})",
      true, 0, 996},
     {R"(int buf[8];
int main(void) {
  int i; int s = 0;
  for (i = 0; i < 8; i++) { buf[i] = i; }
  for (i = 0; i < 8; i++) { s += buf[i]; }
  return s;
})",
      true, 0, 862}},
    {"20.7", "", // longjmp leaves no statically reachable exit: no rescue
     {R"(int env[16];
int step(int i) { if (i >= 10) { longjmp(env, i); } return i + 1; }
int main(void) {
  int i = 0;
  int r = setjmp(env);
  if (r != 0) { return r; }
  for (;;) { i = step(i); }
})",
      false, 0, 0},
     {R"(int step(int acc) { return acc + 3; }
int main(void) {
  int i; int acc = 0;
  for (i = 0; i < 10; i++) { acc = step(acc); }
  return acc;
})",
      true, 0, 999}},
};

void check_variant(const RuleStudy& study, const Variant& variant, bool violating) {
  const mcc::CompileResult built = mcc::compile_program(variant.source);
  bool flagged = false;
  for (const auto& v : built.violations) flagged = flagged || v.rule == study.rule;
  EXPECT_EQ(flagged, violating);

  const WcetReport plain = Analyzer(built.image, mem::typical_hw()).analyze();
  EXPECT_EQ(plain.ok, variant.auto_bounded);
  EXPECT_EQ(plain.irreducible_loops, variant.irreducible);
  if (plain.ok) {
    expect_pinned_and_sound(built.image, "", variant.wcet);
    return;
  }
  const std::string rescue = (violating ? study.rescue : "") + bound_open_loops(plain, 64);
  if (variant.wcet != 0) {
    expect_pinned_and_sound(built.image, rescue, variant.wcet);
  } else {
    EXPECT_FALSE(Analyzer(built.image, mem::typical_hw(), rescue).analyze().ok);
  }
}

class MisraRuleStudy : public ::testing::TestWithParam<RuleStudy> {};

TEST_P(MisraRuleStudy, FlagsBoundsAndSimulates) {
  {
    SCOPED_TRACE("violating");
    check_variant(GetParam(), GetParam().violating, true);
  }
  SCOPED_TRACE("conforming");
  check_variant(GetParam(), GetParam().conforming, false);
}

INSTANTIATE_TEST_SUITE_P(PaperStudies, MisraRuleStudy, ::testing::ValuesIn(rule_studies),
                         [](const ::testing::TestParamInfo<RuleStudy>& info) {
                           std::string name = std::string("Rule") + info.param.rule;
                           name[6] = '_';
                           return name;
                         });

// Section 4.3, operating modes: per-mode `excludes` facts tighten the
// ground-mode bound far below the global one; the air mode is the
// global worst case.
TEST(PaperStudies, OperatingModes) {
  const auto built = mcc::compile_program(R"(
int mode_flag;       /* 0 = ground, 1 = air; set by the environment */
int sensors[8];

int gear_and_brakes(void) {
  int i; int s = 0;
  for (i = 0; i < 6; i++) { s += sensors[i & 7]; }
  return s;
}

int attitude_control(void) {
  int i; int j; int s = 0;
  for (i = 0; i < 24; i++) {
    for (j = 0; j < 8; j++) { s += sensors[j] * (i + j); }
  }
  return s;
}

int main(void) {
  if (mode_flag != 0) { return attitude_control(); }
  return gear_and_brakes();
}
)");
  const std::string io =
      io_region(built.image, "mode_flag", 4) + io_region(built.image, "sensors", 32);
  const std::uint32_t flag = built.image.find_symbol("mode_flag")->addr;
  const auto in_mode = [flag](std::uint32_t mode) {
    return [flag, mode](std::uint32_t addr) { return addr == flag ? mode : 55u; };
  };
  for (const std::uint32_t mode : {0u, 1u}) expect_pinned_and_sound(built.image, io, 15296, in_mode(mode));

  AnalysisOptions ground;
  ground.mode = "GROUND";
  expect_pinned_and_sound(built.image, io + "mode GROUND excludes \"attitude_control\"\n", 521,
                          in_mode(0), ground);
  AnalysisOptions air;
  air.mode = "AIR";
  expect_pinned_and_sound(built.image, io + "mode AIR excludes \"gear_and_brakes\"\n", 15296,
                          in_mode(1), air);
}

// Section 4.3, error handling: all errors at once (sound default), a
// documented envelope of at most two faults, and error paths excluded.
TEST(PaperStudies, ErrorHandlingScenarios) {
  const auto built = mcc::compile_program(R"(
int fault_bits;          /* hardware fault word, set by the environment */
int samples[8];

int sensor_sweep(void) {
  int i; int s = 0;
  for (i = 0; i < 8; i++) { s += samples[i]; }
  return s;
}

int recover_channel(int channel) {   /* expensive recalibration */
  int i; int acc = 0;
  for (i = 0; i < 40; i++) { acc += channel * i; }
  return acc;
}

int main(void) {
  int result = sensor_sweep();
  int ch;
  for (ch = 0; ch < 8; ch++) {
    if ((fault_bits & (1 << ch)) != 0) { result += recover_channel(ch); }
  }
  return result;
}
)");
  const std::string io = io_region(built.image, "fault_bits", 4);
  const struct {
    const char* facts;
    std::uint32_t fault_word;
    std::uint64_t wcet;
  } scenarios[] = {
      {"", 0xFF, 13666},
      {"flow at \"recover_channel\" <= 2\n", 0x11, 4234},
      {"never at \"recover_channel\"\n", 0, 1075},
  };
  for (const auto& s : scenarios) {
    SCOPED_TRACE(s.facts);
    expect_pinned_and_sound(built.image, io + s.facts, s.wcet,
                            [&](std::uint32_t) { return s.fault_word; });
  }
}

// Section 4.3, data-dependent algorithms: the message handler whose read
// and write cycles never share an activation. The transfer loops bounded
// by the buffer capacity (32 words) vs. by the design facts (8 words,
// read and write exclusive).
TEST(PaperStudies, MessageHandlerBuffers) {
  const auto built = mcc::compile_program(R"(
int cycle_is_read;        /* scheduling cycle parity, set by the kernel */
int msg_len;              /* message length in words, set by the driver */
int rx_fifo[32];
int tx_fifo[32];
int app_buffer[32];

int copy_in(int words) {
  int i; int sum = 0;
  for (i = 0; i < words; i++) { app_buffer[i] = rx_fifo[i]; sum += app_buffer[i]; }
  return sum;
}

int copy_out(int words) {
  int i; int sum = 0;
  for (i = 0; i < words; i++) { tx_fifo[i] = app_buffer[i]; sum += tx_fifo[i]; }
  return sum;
}

int main(void) {
  if (cycle_is_read != 0) { return copy_in(msg_len); }
  return copy_out(msg_len);
}
)");
  const std::string io =
      io_region(built.image, "cycle_is_read", 4) + io_region(built.image, "msg_len", 4);
  const WcetReport probe = Analyzer(built.image, mem::typical_hw(), io).analyze();
  EXPECT_FALSE(probe.ok) << "the transfer loops are data-dependent";
  const std::uint32_t len = built.image.find_symbol("msg_len")->addr;
  const auto read_cycle = [len](std::uint32_t words) {
    return [len, words](std::uint32_t addr) { return addr == len ? words : 1u; };
  };

  const std::string capacity = io + bound_open_loops(probe, 32);
  expect_pinned_and_sound(built.image, capacity, 7820, read_cycle(32));
  expect_pinned_and_sound(built.image,
                          capacity + bound_open_loops(probe, 8) +
                              "infeasible at \"copy_in\" with \"copy_out\"\n",
                          2108, read_cycle(8));
}

// Section 4.3, imprecise memory accesses: a store through an unchecked
// index may alias the application's loop limit, forcing a capacity
// annotation; an `accesses` fact confines the driver instead.
TEST(PaperStudies, AccessFactConfinesImpreciseStore) {
  const auto built = mcc::compile_program(R"(
int device_shadow[16];   /* driver-owned mirror of CAN registers */
int app_state[16];       /* application data, never touched by the driver */
int reg_index;           /* which register to mirror, set by the device */

void can_driver_update(void) { device_shadow[reg_index] = reg_index; }

int app_limit = 12;      /* configuration constant, set at build time */

int application_step(void) {
  int i; int s = 0;
  for (i = 0; i < app_limit; i++) { s += app_state[i & 15]; }
  return s;
}

int main(void) {
  can_driver_update();
  return application_step();
}
)");
  std::ostringstream io;
  io << "region \"devreg\" at " << built.image.find_symbol("reg_index")->addr
     << " size 4 read 30 write 30 io\n";
  const WcetReport probe = Analyzer(built.image, mem::typical_hw(), io.str()).analyze();
  EXPECT_FALSE(probe.ok) << "the wild store must cost the application loop its bound";
  const Mmio device = [](std::uint32_t) { return 13u; };

  const WcetReport unconfined =
      expect_pinned_and_sound(built.image, io.str() + bound_open_loops(probe, 16), 1358, device);
  std::ostringstream fact;
  fact << "accesses \"can_driver_update\" at " << built.image.find_symbol("device_shadow")->addr
       << " size 64\n";
  const WcetReport confined =
      expect_pinned_and_sound(built.image, io.str() + fact.str(), 1050, device);
  for (const WcetReport* report : {&unconfined, &confined}) {
    EXPECT_EQ(report->cache_stats.data_hit, 9u);
    EXPECT_EQ(report->cache_stats.data_nc, 2u);
  }
}

} // namespace
} // namespace wcet
