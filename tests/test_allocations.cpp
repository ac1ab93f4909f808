// Allocation counts of the hot abstract-state and recipe paths. This
// executable replaces the global operator new to count calls, so it is
// not built in sanitizer configurations (they bring their own
// allocator; see CMakeLists.txt).
//
//   - An AbsState owns no heap memory apart from its copy-on-write
//     memory table: copying a state with written regions, and joining
//     two states that share the table, allocate nothing.
//   - The signed interval transfers split their operands without
//     allocating.
//   - TransferCache::build_cache_recipes writes a few flat tables, so
//     its allocation count does not grow with the node count.
//   - A warm one-function-edit submit on the serve workload's shape
//     stays under a pinned number of heap blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "analysis/transfer_cache.hpp"
#include "analysis/value_analysis.hpp"
#include "mcc/runtime.hpp"
#include "mem/hwmodel.hpp"
#include "serve/analysis_server.hpp"
#include "tests/differential_shapes.hpp"
#include "tests/front_half.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace wcet::analysis {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

Interval word_at(std::uint32_t addr) {
  return Interval::from_unsigned(addr, static_cast<std::int64_t>(addr) + 3);
}

TEST(Allocations, CounterSeesOperatorNew) {
  const std::uint64_t before = allocations();
  auto* p = new int(7);
  const std::uint64_t after = allocations();
  delete p;
  EXPECT_EQ(after - before, 1u);
}

TEST(Allocations, AbsStateCopyAndJoinAllocateNothing) {
  AbsState base = AbsState::entry_state();
  base.mem.mut()[0x1000] = Interval::constant(5); // a shared COW table
  for (std::uint32_t i = 1; i <= 4; ++i) base.add_written(word_at(0x2000 * i));

  const std::uint64_t before = allocations();
  AbsState copy = base;               // shares the table, copies the list
  copy.regs[isa::reg_a0] = Interval::constant(3);
  copy.add_written(word_at(0x40000)); // fifth region
  copy.add_written(word_at(0x50000)); // sixth region
  AbsState joined = base;
  const bool changed = joined.join_with(copy);
  const bool again = joined.join_with(copy);
  AbsState far = base;
  far.written = WrittenRegions{};
  far.add_written(word_at(0x60000));
  const bool grew = joined.join_with(far); // seventh region: collapse to a hull
  AbsState from_bottom;
  const bool installed = from_bottom.join_with(joined);
  const bool equal = from_bottom == joined;
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u) << "AbsState copies or joins allocated";
  EXPECT_TRUE(changed);
  EXPECT_FALSE(again);
  EXPECT_TRUE(grew);
  EXPECT_TRUE(installed);
  EXPECT_TRUE(equal);
  EXPECT_EQ(joined.written.size(), 1u);
  EXPECT_TRUE(joined.mem.same_as(base.mem));
}

TEST(Allocations, SignedIntervalTransfersAllocateNothing) {
  // Both operands straddle the signed wrap point, so every signed
  // transfer splits each of them into two parts.
  const Interval a = Interval::from_unsigned(0x7FFFFFF0, 0x80000010);
  const Interval b = Interval::from_unsigned(0x7FFFFFFE, 0x80000002);
  const std::uint64_t before = allocations();
  const Interval product = a.mul(b);
  const Interval quotient = a.div_s(b);
  const Interval remainder = a.rem_s(b);
  const Interval shifted = a.shr_s(Interval::constant(3));
  const Interval below = a.refine(Pred::lt_s, b);
  const Interval above = a.refine(Pred::ge_s, b);
  const std::uint64_t after = allocations();
  EXPECT_EQ(after - before, 0u) << "signed interval transfers allocated";
  EXPECT_FALSE(product.is_bottom());
  EXPECT_FALSE(quotient.is_bottom());
  EXPECT_FALSE(remainder.is_bottom());
  EXPECT_FALSE(shifted.is_bottom());
  EXPECT_FALSE(below.is_bottom());
  EXPECT_FALSE(above.is_bottom());
}

struct Shape : testshapes::FrontHalf {
  explicit Shape(const std::string& source)
      : FrontHalf(mcc::compile_program(source).image) {}

  // Allocations of one recipe build at a pool of 1 (inline).
  std::uint64_t recipe_build_allocations() {
    const std::uint64_t before = allocations();
    transfers.build_cache_recipes(hw.memory, hw.icache, hw.dcache, nullptr);
    return allocations() - before;
  }
};

TEST(Allocations, RecipeBuildDoesNotGrowPerNode) {
  Shape narrow(testshapes::wide_fan(16, 3));
  Shape wide(testshapes::wide_fan(64, 3));
  ASSERT_GT(wide.sg.nodes().size(), 3 * narrow.sg.nodes().size());
  // Warm the builder's per-thread scratch, then measure both shapes.
  Shape warmup(testshapes::wide_fan(4, 3));
  warmup.recipe_build_allocations();
  const std::uint64_t narrow_allocs = narrow.recipe_build_allocations();
  const std::uint64_t wide_allocs = wide.recipe_build_allocations();
  ASSERT_TRUE(wide.transfers.cache_recipes_ready());
  EXPECT_LE(wide_allocs, narrow_allocs + 2)
      << "16 functions: " << narrow_allocs << " blocks, 64 functions: " << wide_allocs
      << " blocks (" << narrow.sg.nodes().size() << " vs " << wide.sg.nodes().size()
      << " nodes)";
  EXPECT_LT(wide_allocs, 40u) << "recipe build allocated per node or per access";
}

// The serve benchmark's shape: 64 functions with three counted loops
// each, called in sequence. `bound` is the trip count of the second
// loop of work17; changing it edits one comparison immediate.
std::string serve_shape(int bound) {
  std::ostringstream os;
  os << "int data[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};\n";
  for (int f = 0; f < 64; ++f) {
    os << "int work" << f << "(int x) {\n  int s = x;\n";
    for (int l = 0; l < 3; ++l) {
      const int trips = f == 17 && l == 1 ? bound : 3 + (f + l) % 5;
      os << "  { int i; for (i = 0; i < " << trips << "; i++) { s += data[(s + i) & 15]; } }\n";
    }
    os << "  return s;\n}\n";
  }
  os << "int main(void) {\n  int total = 0;\n";
  for (int f = 0; f < 64; ++f) os << "  total += work" << f << "(total);\n";
  os << "  return total;\n}\n";
  return os.str();
}

// The heap blocks one warm submit allocates at threads 1: the request
// edits one loop bound of one function, so the server re-analyzes
// warm (the report cache is off). A rise past the pin means some layer
// started allocating per node or per loop again on the warm path.
TEST(Allocations, WarmOneFunctionEditSubmitIsPinned) {
  const isa::Image base = mcc::compile_program(serve_shape(5)).image;
  const isa::Image edited = mcc::compile_program(serve_shape(6)).image;
  serve::ServeOptions options;
  options.report_cache_capacity = 0;
  serve::AnalysisServer server(mem::typical_hw(), options);
  ASSERT_TRUE(server.submit(base).ok);
  ASSERT_TRUE(server.submit(edited).ok); // warms the per-thread scratch
  const std::uint64_t before = allocations();
  const WcetReport warm = server.submit(base);
  const std::uint64_t blocks = allocations() - before;
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(server.stats().warm_runs, 2u);
  EXPECT_EQ(server.stats().warm_fallbacks, 0u);
  // 34180 blocks before warm runs adopted per item, 16826 after.
  EXPECT_LE(blocks, 18500u) << "a warm one-function-edit submit allocated " << blocks
                            << " blocks";
}

} // namespace
} // namespace wcet::analysis
