#include "wcet/analyzer.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "support/diag.hpp"
#include "support/thread_pool.hpp"
#include "wcet/pipeline.hpp"

namespace wcet {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

} // namespace

Analyzer::Analyzer(const isa::Image& image, const mem::HwConfig& hw,
                   const std::string& annotation_text)
    : image_(image), hw_(hw) {
  annotations_ = annot::parse_annotations(annotation_text, image);
  // Merge annotation regions into the memory map: annotation regions
  // take precedence, splitting whatever base-map coverage they overlap.
  for (const mem::Region& region : annotations_.regions) {
    hw_.memory.add_region_override(region);
  }
}

WcetReport Analyzer::analyze(const AnalysisOptions& options) const {
  return analyze_entry(image_.entry(), options);
}

WcetReport Analyzer::analyze_function(const std::string& name,
                                      const AnalysisOptions& options) const {
  const isa::Symbol* sym = image_.find_symbol(name);
  if (sym == nullptr) throw InputError("no such function symbol: " + name);
  return analyze_entry(sym->addr, options);
}

WcetReport Analyzer::analyze_entry(std::uint32_t entry,
                                   const AnalysisOptions& options) const {
  const auto t_total = std::chrono::steady_clock::now();
  AnalysisContext ctx(image_, hw_, annotations_, options, entry);
  // One pool per analysis; every parallel schedule in the phases is
  // deterministic, so the worker count never changes computed bounds.
  ThreadPool pool(options.threads > 1 ? static_cast<unsigned>(options.threads) : 1);
  run_figure1(ctx, pool);
  WcetReport report = std::move(ctx.report);
  report.timings.total_ms = ms_since(t_total);
  return report;
}

std::string WcetReport::to_string() const {
  std::ostringstream os;
  os << "=== WCET analysis report ===\n";
  if (ok) {
    os << (degraded ? "status: OK (DEGRADED: budget-limited; bounds sound but possibly loose)"
                    : "status: OK")
       << '\n';
    os << "WCET bound: " << wcet_cycles << " cycles\n";
    os << "BCET bound: " << bcet_cycles << " cycles\n";
  } else {
    os << "status: NO BOUND (obstructions present)" << '\n';
  }
  for (const std::string& issue : obstructions) {
    os << "obstruction: " << issue << '\n';
  }
  for (const Degradation& d : degradations) {
    os << "degraded: [" << d.phase << "] " << d.trigger << ": " << d.effect << '\n';
  }
  os << "decoding: " << functions << " functions, " << blocks << " blocks; supergraph "
     << sg_nodes << " nodes / " << sg_edges << " edges\n";
  os << "loops: " << loop_count << " total, " << bounded_loops << " bounded, "
     << irreducible_loops << " irreducible\n";
  for (const LoopInfo& loop : loops) {
    os << "  loop @0x" << std::hex << loop.header_addr << std::dec << " [" << loop.context
       << "]";
    if (loop.irreducible) os << " IRREDUCIBLE";
    if (loop.used_bound) {
      os << " bound=" << *loop.used_bound
         << (loop.analyzed_bound ? " (analysis" : " (annotation");
      if (loop.analyzed_bound && loop.annotated_bound) os << "+annotation";
      os << ")";
    } else {
      os << " UNBOUNDED";
    }
    os << " -- " << loop.detail << '\n';
  }
  os << "cache: ifetch AH/AM/NC/UC = " << cache_stats.fetch_hit << '/'
     << cache_stats.fetch_miss << '/' << cache_stats.fetch_nc << '/'
     << cache_stats.fetch_uncached << "; data AH/AM/NC/UC = " << cache_stats.data_hit
     << '/' << cache_stats.data_miss << '/' << cache_stats.data_nc << '/'
     << cache_stats.data_uncached << "; persistent = " << cache_stats.persistent << '\n';
  os << "cache state sharing: " << cache_joins << " set joins, " << cache_join_skips
     << " pointer-equality skips; " << set_image_allocs << " set-image allocs, peak live "
     << live_set_images_peak << '\n';
  os << "ILP: " << ilp_variables << " variables, " << ilp_constraints << " constraints; "
     << "decomposition: " << ipet_regions << " regions, " << ipet_sub_ilps
     << " sub-ILPs, depth " << ipet_depth << '\n';
  os << "simplex: " << phase1_pivots << " phase-1 + " << phase2_pivots
     << " phase-2 pivots, " << crash_basis_rows << " crash-basis rows\n";
  if (validated) {
    if (paths_explored > 0) {
      os << "validation: oracle " << paths_explored << " paths ("
         << (oracle_complete ? "complete" : "truncated") << "), cost in ["
         << oracle_min_path_cost << ", " << oracle_max_path_cost << "] vs bounds ["
         << bcet_cycles << ", " << wcet_cycles << "] => "
         << (oracle_bracket_ok ? "bracket OK" : "BRACKET VIOLATED") << '\n';
    }
    if (ok) {
      os << "validation: witness "
         << (witness_checked ? (witness_valid ? "valid" : "INVALID")
                             : (witness_available ? "unverified" : "unavailable"));
      if (witness_replayed) {
        os << ", replayed " << measured_cycles << " cycles, tightness (wcet/measured) = "
           << tightness_x1000 / 1000 << '.';
        const std::uint64_t frac = tightness_x1000 % 1000;
        os << (frac < 100 ? "0" : "") << (frac < 10 ? "0" : "") << frac;
      }
      os << '\n';
    }
    if (!validation_skipped.empty()) {
      os << "validation skipped: " << validation_skipped << '\n';
    }
  }
  os << "timings (ms): decode " << timings.decode_ms << ", value " << timings.value_ms
     << ", loop " << timings.loop_ms << ", cache " << timings.cache_ms << ", pipeline "
     << timings.pipeline_ms << ", path " << timings.path_ms << " (ilp "
     << timings.ilp_ms << ")";
  if (validated) os << ", validate " << timings.validate_ms;
  os << ", total " << timings.total_ms << '\n';
  return os.str();
}

} // namespace wcet
