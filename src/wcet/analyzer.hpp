// The static WCET analyzer: Figure 1 of the paper as a driver.
//
//   binary image
//     -> decoding phase            (cfg::Program::reconstruct)
//     -> loop/value analysis       (ValueAnalysis + LoopBoundAnalysis,
//        with a feedback edge: value-analysis results resolve indirect
//        branches and trigger a re-decode, bounded by max_decode_rounds)
//     -> cache/pipeline analysis   (CacheAnalysis + PipelineAnalysis)
//     -> path analysis             (Ipet)
//     -> WCET bound + report
//
// Tier-one obstructions (unresolved indirect control flow, unannotated
// recursion, unbounded reachable loops) are collected and make the
// analysis refuse to state a bound — a silent unsound bound would
// violate the paper's first requirement, soundness (Section 3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/ipet.hpp"
#include "annot/annotations.hpp"
#include "isa/image.hpp"
#include "mem/hwmodel.hpp"
#include "support/budget.hpp"
#include "support/flat_map.hpp"

namespace wcet {

struct AnalysisOptions {
  AnalysisOptions() {}
  std::string mode;            // operating mode; empty = all behaviours
  // Fixed settings, still readable as members of an options value.
  static constexpr bool use_annotations = true; // annotations always apply
  static constexpr int max_decode_rounds = 3;   // value-analysis -> decode feedback trips
  // Worker threads for the per-instance parallel schedules (value
  // analysis rounds, IPET sub-ILPs, classification sweeps). Every
  // parallel schedule is deterministic by construction, so computed
  // bounds, obstructions and states are bit-identical for any value;
  // <= 1 runs fully sequential on the calling thread.
  int threads = 1;
  // How path analysis splits the IPET ILP (see analysis::Ipet::solve_both).
  // Both modes compute identical bounds; monolithic is the reference
  // path, recursive collapses eligible call subtrees into nested sub-ILPs.
  analysis::IpetDecomposition decomposition = analysis::IpetDecomposition::recursive;
  // Resource envelope (support/budget.hpp): wall-clock deadline,
  // per-phase step budgets, and an optional external cancel token. A
  // default-constructed budget changes nothing; exhausting a step
  // budget degrades the affected phase soundly and records it in
  // WcetReport::degradations; a fired cancel token aborts the analysis
  // with CancelledError.
  AnalysisBudget budget;
  // Independent-oracle validation (src/validate): run a bounded
  // exhaustive path-exploration oracle against the computed bounds and
  // replay the task on the cycle-accurate simulator for a measured
  // lower bound. Fills the validation block of WcetReport; never
  // changes the computed bounds. The budgets are per oracle sweep;
  // truncated sweeps keep the bracket sound (see validate/path_oracle).
  bool validate = false;
  std::uint64_t validate_max_paths = 50'000;
  std::uint64_t validate_max_steps = 2'000'000;
  // Step budget of the witness-realization walk (validate/witness_replay).
  // Exhausting it records a classified skip but never blocks the
  // simulator replay leg — the replay is witness-independent.
  std::uint64_t validate_witness_max_steps = 1u << 22;
};

struct LoopInfo {
  std::uint32_t header_addr = 0;
  std::string context;
  bool irreducible = false;
  std::optional<std::uint64_t> analyzed_bound;
  std::optional<std::uint64_t> annotated_bound;
  std::optional<std::uint64_t> used_bound;
  std::string detail;
  bool operator==(const LoopInfo&) const = default;
};

struct PhaseTimings {
  double decode_ms = 0;
  double value_ms = 0;
  double loop_ms = 0;
  double cache_ms = 0;
  double pipeline_ms = 0;
  double path_ms = 0;
  double ilp_ms = 0; // inside path_ms: wall time of the WCET+BCET ILP solves
  double validate_ms = 0; // oracle validation (only with AnalysisOptions::validate)
  double total_ms = 0;
  bool operator==(const PhaseTimings&) const = default;
};

struct WcetReport {
  bool ok = false;
  std::uint64_t wcet_cycles = 0;
  std::uint64_t bcet_cycles = 0;
  std::vector<std::string> obstructions;

  // Budget/degradation ledger: every sound fallback a resource budget
  // forced (see support/budget.hpp). A non-empty ledger means the
  // bounds are true but possibly looser than an unlimited run's.
  bool degraded = false;
  std::vector<Degradation> degradations;
  std::uint64_t budget_checks = 0;     // governor checkpoints consulted
  std::int64_t cancel_latency_us = -1; // -1: never cancelled

  // Phase artifacts (the Figure-1 data stations).
  int functions = 0;
  int blocks = 0;
  int sg_nodes = 0;
  int sg_edges = 0;
  int loop_count = 0;
  int bounded_loops = 0;
  int irreducible_loops = 0;
  analysis::CacheAnalysis::Stats cache_stats;
  // COW state telemetry of the cache pass (see CacheJoinStats /
  // CowLeafStats): set-level joins examined vs. skipped by pointer
  // equality, set-image allocations, and the peak live image count.
  std::uint64_t cache_joins = 0;
  std::uint64_t cache_join_skips = 0;
  std::uint64_t set_image_allocs = 0;
  std::uint64_t live_set_images_peak = 0;
  int ilp_variables = 0;
  int ilp_constraints = 0;
  int ipet_regions = 0;  // top-level collapsed subtrees of the WCET solve
  int ipet_sub_ilps = 0; // sub-ILPs solved across all nesting levels
  int ipet_depth = 0;    // decomposition nesting depth
  // Simplex phase split across every region of the WCET solve: crash
  // bases (network-flow spanning trees seeding the tableau) drive
  // phase1_pivots to zero on every region whose fact and loop-bound
  // rows the crash solution satisfies (a violated row is repaired by
  // phase 1 alone); crash_basis_rows counts eliminations that replaced
  // artificial variables.
  std::uint64_t phase1_pivots = 0;
  std::uint64_t phase2_pivots = 0;
  std::uint64_t crash_basis_rows = 0;
  std::vector<LoopInfo> loops;
  PhaseTimings timings;

  // Path-analysis witness contract (analysis/ipet.hpp): true when the
  // ILP produced an integral extremal-path witness. Degraded solves
  // prove a bound without one — consumers branch on this flag instead
  // of inferring availability from an empty wcet_block_counts map.
  bool witness_available = false;

  // Independent-oracle validation block (src/validate), populated only
  // when AnalysisOptions::validate is set.
  bool validated = false;             // the validation pass ran
  std::string validation_skipped;     // classified reasons for skipped legs
  std::uint64_t paths_explored = 0;   // complete paths costed by the oracle
  bool oracle_complete = false;       // enumeration finished within budget
  bool oracle_bracket_ok = false;     // max<=wcet and bcet<=min held
  std::uint64_t oracle_max_path_cost = 0;
  std::uint64_t oracle_min_path_cost = 0;
  bool witness_checked = false;       // witness walk reached a verdict
  bool witness_valid = false;         // ... and the witness is realizable
  bool witness_replayed = false;      // simulator replay completed
  std::uint64_t measured_cycles = 0;  // replayed cycles (true lower bound)
  std::uint64_t tightness_x1000 = 0;  // wcet_cycles * 1000 / measured_cycles

  // Execution counts on the worst-case path, summed per block address
  // (ascending). A flat vector: reports are copied on every report-cache
  // insert and hit.
  FlatMap<std::uint32_t, std::uint64_t> wcet_block_counts;

  std::string to_string() const;
  bool operator==(const WcetReport&) const = default;
};

class Analyzer {
public:
  // Annotation regions are merged into a copy of `hw`'s memory map
  // (same-name regions are replaced).
  Analyzer(const isa::Image& image, const mem::HwConfig& hw,
           const std::string& annotation_text = "");

  const annot::AnnotationDb& annotations() const { return annotations_; }
  const mem::HwConfig& hw() const { return hw_; }

  WcetReport analyze(const AnalysisOptions& options = {}) const;
  WcetReport analyze_entry(std::uint32_t entry, const AnalysisOptions& options = {}) const;
  WcetReport analyze_function(const std::string& name,
                              const AnalysisOptions& options = {}) const;

private:
  const isa::Image& image_;
  mem::HwConfig hw_;
  annot::AnnotationDb annotations_;
};

} // namespace wcet
