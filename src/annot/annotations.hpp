// Annotation language: the channel for design-level information the
// paper proposes in Section 4.3. Every fact class discussed there has a
// statement form:
//
//   loop at <place> max <n> [in mode <name>]    loop bounds, per mode
//   recursion <place> max <n>                   recursion depth (rule 16.2)
//   targets at <place> are <place>, ...         function pointers (§3.2)
//   flow at <place> <= <n>                      absolute count cap
//   flow at <place> <= <n> * at <place>         relative flow fact
//   infeasible at <place> with <place>          mutually exclusive paths
//                                               (read vs write cycles)
//   mode <name> excludes <place>                operating modes
//   never at <place>                            error-handling exclusion
//   region "<name>" at <addr> size <n> read <r> write <w> [uncached] [io]
//                                               memory map refinement
//   accesses <place> region "<name>"            per-function confinement
//   accesses <place> at <addr> size <n>         of imprecise accesses
//
// <place> is a hex/decimal address or a quoted symbol name with an
// optional +offset ("handler"+0x10). Symbols resolve against the image
// at parse time. '#' starts a comment; statements end at ';' or EOL.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "isa/image.hpp"
#include "mem/memmap.hpp"

namespace wcet::annot {

struct LoopBoundFact {
  std::uint32_t addr = 0; // any address inside the loop (typically header)
  std::uint64_t max_iterations = 0;
  std::string mode; // empty: applies in every mode
};

struct FlowCapFact {
  std::uint32_t addr = 0;
  std::uint64_t max_count = 0;
  std::string mode;
};

struct FlowRatioFact {
  std::uint32_t addr = 0;
  std::uint64_t factor = 0;
  std::uint32_t relative_to = 0;
};

struct InfeasiblePairFact {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

struct AccessRange {
  std::uint32_t base = 0;
  std::uint32_t size = 0;
};

class AnnotationDb {
public:
  std::vector<LoopBoundFact> loop_bounds;
  std::map<std::uint32_t, unsigned> recursion_depths; // function entry -> depth
  std::map<std::uint32_t, std::vector<std::uint32_t>> indirect_targets;
  std::vector<FlowCapFact> flow_caps;
  std::vector<FlowRatioFact> flow_ratios;
  std::vector<InfeasiblePairFact> infeasible_pairs;
  std::map<std::string, std::vector<std::uint32_t>> mode_excludes;
  std::vector<std::uint32_t> never_addrs;
  std::vector<mem::Region> regions;
  std::map<std::uint32_t, std::vector<AccessRange>> access_facts; // fn entry -> ranges

  // Addresses excluded in `mode` (mode excludes + global nevers).
  std::set<std::uint32_t> excluded_addrs(const std::string& mode) const;
  std::vector<std::string> mode_names() const;
};

// Parse annotation text; symbol places resolve against `image`. Throws
// InputError with a line-numbered message on malformed input.
AnnotationDb parse_annotations(std::string_view text, const isa::Image& image);

} // namespace wcet::annot
