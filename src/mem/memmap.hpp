// Address-space map: memory regions with distinct timing and
// cacheability, mirroring the paper's "multiple memory areas with
// different timings" (Section 4.2, rule 20.4; Section 4.3, imprecise
// memory accesses). Fast internal SRAM, slow flash, and memory-mapped
// I/O regions are all expressible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/interval.hpp"

namespace wcet::mem {

struct Region {
  std::string name;
  std::uint32_t base = 0;
  std::uint32_t size = 0;
  unsigned read_latency = 1;  // cycles per access bypassing/missing the cache
  unsigned write_latency = 1;
  bool cacheable = true;
  bool io = false; // device registers: reads have side effects, never cached

  std::uint32_t end() const { return base + size; }
  bool contains(std::uint32_t addr) const { return addr >= base && addr - base < size; }
  bool operator==(const Region&) const = default;
};

class MemoryMap {
public:
  // The default region backs all addresses not covered by any explicit
  // region (think: external bus). It is deliberately slow so that an
  // analysis confronted with an unknown address must assume the worst —
  // exactly the effect the paper describes.
  MemoryMap();

  void add_region(Region region);
  // Add a region that takes precedence over existing coverage: any
  // overlapped parts of existing regions are split away so the map stays
  // disjoint. Used for annotation-supplied region refinements.
  void add_region_override(const Region& region);
  const Region& region_for(std::uint32_t addr) const;
  const std::vector<Region>& regions() const { return regions_; }
  const Region* find(const std::string& name) const;

  // [min,max] read/write latency over every address a value-analysis
  // interval may touch. An unknown (TOP) address interval therefore
  // yields the slowest region in the whole map.
  std::pair<unsigned, unsigned> read_latency_bounds(const Interval& addr) const;
  std::pair<unsigned, unsigned> write_latency_bounds(const Interval& addr) const;
  // True iff every address in `addr` is cacheable.
  bool all_cacheable(const Interval& addr) const;
  // True iff `addr` certainly lies in one single region; returns it.
  const Region* unique_region(const Interval& addr) const;

  bool operator==(const MemoryMap&) const = default;

private:
  std::pair<unsigned, unsigned> latency_bounds(const Interval& addr, bool write) const;

  std::vector<Region> regions_;
  Region default_region_;
};

// Standard map used by examples/benches: fast SRAM for code+data, slow
// flash for constants, one MMIO block for a CAN-style device.
MemoryMap typical_embedded_map();

} // namespace wcet::mem
