// Loop-bound analysis: data-flow based detection of counter loops on top
// of the value analysis (cf. Cullmann & Martin, "Data-Flow Based
// Detection of Loop Bounds", cited as [4] in the paper).
//
// A loop is automatically bounded when it has the shape the MISRA rules
// of Section 4.2 push developers towards:
//   - reducible (single entry — rules 14.4/16.2/20.7),
//   - a single conditional branch decides exit,
//   - the branch compares a register `i` against a loop-invariant
//     operand (rule 13.6: the counter is not modified elsewhere),
//   - `i` is updated by exactly one `addi i, i, c` on every path through
//     the body (integer counter — rule 13.4 excludes float conditions,
//     which on tiny32 become opaque soft-float calls anyway).
// Anything else — input-data dependent loops, irreducible loops,
// argument-list loops from varargs — yields "no bound found" and must be
// covered by an annotation, mirroring aiT's behaviour described in the
// paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/value_analysis.hpp"
#include "cfg/domloop.hpp"

namespace wcet::analysis {

class TransferCache;

struct LoopBoundResult {
  int loop_id = -1;
  std::optional<std::uint64_t> bound; // max back-edge executions per entry
  bool irreducible = false;
  std::string detail; // human-readable reason / derivation
};

class LoopBoundAnalysis {
public:
  // `transfers`: the shared transfer cache `values` published into
  // (required); counter initial values are read from its memoized
  // loop-entry edge states.
  LoopBoundAnalysis(const cfg::Supergraph& sg, const cfg::LoopForest& loops,
                    const cfg::Dominators& doms, const ValueAnalysis& values,
                    const TransferCache* transfers);

  // A previous run over a structurally identical supergraph (shared
  // loop forest and dominators) and the nodes whose value results are
  // verified equal to it (src/serve: WarmHandoff::node_clean).
  struct Previous {
    const std::vector<LoopBoundResult>& results;
    const ValueAnalysis& values;
    const TransferCache& transfers;
    const std::vector<char>& node_clean;
  };

  // Analyze every loop; results indexed by loop id. With `previous`, a
  // loop adopts its previous result when every input analyze_loop reads
  // compares equal: all of its nodes are clean, and each entry edge
  // keeps its feasibility and its refined state (compared directly —
  // the header's in-state joins the entry states with the back edges
  // and can hide a changed one). `adopted` receives the count.
  std::vector<LoopBoundResult> run(const Previous* previous = nullptr,
                                   std::size_t* adopted = nullptr) const;

  // Exposed for tests: maximum number of iterations of an affine counter
  // i starting in `init`, stepping by `stride`, staying while
  // `i pred limit` holds. nullopt: cannot bound (e.g. stride 0).
  static std::optional<std::uint64_t> affine_trip_count(const Interval& init,
                                                        std::int32_t stride, Pred stay,
                                                        const Interval& limit);

private:
  // Buffers analyze_loop reuses across the loops of one run.
  struct Scratch;
  std::optional<std::uint64_t> analyze_loop(const cfg::Loop& loop, std::string& detail,
                                            Scratch& scratch) const;
  bool inputs_unchanged(const cfg::Loop& loop, const Previous& previous) const;

  const cfg::Supergraph& sg_;
  const cfg::LoopForest& loops_;
  const cfg::Dominators& doms_;
  const ValueAnalysis& values_;
  const TransferCache* transfers_;
};

} // namespace wcet::analysis
