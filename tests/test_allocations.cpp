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
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analysis/transfer_cache.hpp"
#include "analysis/value_analysis.hpp"
#include "mcc/runtime.hpp"
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

} // namespace
} // namespace wcet::analysis
