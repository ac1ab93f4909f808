#include "serve/analysis_server.hpp"

#include <chrono>
#include <new>
#include <sstream>
#include <utility>

#include "support/diag.hpp"
#include "support/fault_inject.hpp"
#include "support/thread_pool.hpp"
#include "wcet/pipeline.hpp"

namespace wcet::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

} // namespace

std::string ServeStats::to_string() const {
  std::ostringstream os;
  os << "=== wcet_serve stats ===\n";
  os << "requests: " << requests << " (fingerprint hits " << fingerprint_hits << ")\n";
  os << "pipeline: " << warm_runs << " warm / " << cold_runs << " cold runs, "
     << warm_cache_starts << " warm cache starts, " << warm_fallbacks << " warm fallbacks, "
     << path_reuses << " sub-ILPs reused, "
     << dirty_instances << " dirty instances\n";
  os << "adopted: " << loop_bounds_adopted << " loop bounds, " << node_rows_adopted
     << " node rows, " << node_timings_adopted << " node timings\n";
  os << "report cache: " << evictions << " evictions\n";
  os << "degradations: " << degradations << '\n';
  return os.str();
}

// Last successful run's artifacts: everything the next request's warm
// path borrows. Heap-allocated and never moved internally — the
// AnalysisContext holds references into hw/annotations, and the next
// request's WarmHandoff points back at ctx, so member addresses must
// stay stable for the object's whole lifetime. The image is shared with
// the run's report-cache entry: one copy of the submitted image per
// request.
struct AnalysisServer::Converged {
  std::shared_ptr<const isa::Image> image;
  std::string annotation_text;
  mem::HwConfig hw; // base map + annotation region overrides
  annot::AnnotationDb annotations;
  std::unique_ptr<AnalysisContext> ctx;
  bool ok = false;
  bool degraded = false;
};

struct AnalysisServer::CacheEntry {
  std::shared_ptr<const isa::Image> image;
  std::string annotation_text;
  WcetReport report;
};

AnalysisServer::AnalysisServer(const mem::HwConfig& hw, ServeOptions options)
    : base_hw_(hw), options_(std::move(options)) {
  const int threads = options_.analysis.threads;
  pool_ = std::make_unique<ThreadPool>(threads > 1 ? static_cast<unsigned>(threads) : 1);
}

AnalysisServer::~AnalysisServer() = default;

WcetReport AnalysisServer::submit(const isa::Image& image,
                                  const std::string& annotation_text) {
  // Same classification contract as Analyzer::analyze: allocation
  // failure anywhere on the request path (image copy, cache insert,
  // injected at a serve:* site) surfaces as an AnalysisError, never a
  // raw bad_alloc.
  try {
    return submit_request(image, annotation_text);
  } catch (const std::bad_alloc&) {
    throw AnalysisError("analysis ran out of memory");
  }
}

WcetReport AnalysisServer::submit_request(const isa::Image& image,
                                          const std::string& annotation_text) {
  WCET_FAULT_POINT("serve:admit");
  ++stats_.requests;

  for (auto it = report_cache_.begin(); it != report_cache_.end(); ++it) {
    if (it->annotation_text != annotation_text || !(*it->image == image)) continue;
    ++stats_.fingerprint_hits;
    report_cache_.splice(report_cache_.begin(), report_cache_, it);
    return report_cache_.front().report;
  }

  auto next = std::make_unique<Converged>();
  next->image = std::make_shared<const isa::Image>(image);
  next->annotation_text = annotation_text;
  next->hw = base_hw_;
  next->annotations = annot::parse_annotations(annotation_text, *next->image);
  for (const mem::Region& region : next->annotations.regions) {
    next->hw.memory.add_region_override(region);
  }

  std::shared_ptr<const isa::Image> cached_image = next->image;
  WcetReport report = run_pipeline(std::move(next));
  cache_insert(std::move(cached_image), annotation_text, report);
  return report;
}

WcetReport AnalysisServer::run_pipeline(std::unique_ptr<Converged> next) {
  const auto t_total = std::chrono::steady_clock::now();
  const isa::Image& image = *next->image;
  next->ctx = std::make_unique<AnalysisContext>(image, next->hw, next->annotations,
                                                options_.analysis, image.entry());
  AnalysisContext& ctx = *next->ctx;

  // Incremental gate: warm reuse is only attempted against a previous
  // run that converged cleanly under the same annotations (the options
  // are fixed per server, so they are identical by construction), and
  // only when the fresh round-0 supergraph matches it structurally.
  const Converged* prev = current_.get();
  if (prev != nullptr && prev->ok && !prev->degraded && prev->ctx != nullptr &&
      prev->annotation_text == next->annotation_text) {
    ctx.anchor = prev->ctx.get();
  }
  run_figure1(ctx, *pool_);

  if (const AnalysisContext::WarmHandoff* warm = ctx.warm.get(); warm != nullptr) {
    ++stats_.warm_runs;
    stats_.dirty_instances += static_cast<std::uint64_t>(warm->dirty_instances);
    using Start = analysis::CacheAnalysis::Start;
    if (warm->cache_start == Start::warm) ++stats_.warm_cache_starts;
    if (warm->cache_start == Start::fallback) ++stats_.warm_fallbacks;
    stats_.path_reuses += static_cast<std::uint64_t>(ctx.wcet_result.sub_ilps_reused);
    stats_.loop_bounds_adopted += warm->loop_bounds_adopted;
    stats_.node_rows_adopted += warm->node_rows_adopted;
    stats_.node_timings_adopted += warm->node_timings_adopted;
  } else {
    ++stats_.cold_runs;
  }

  WcetReport report = std::move(ctx.report);
  report.timings.total_ms = ms_since(t_total);
  stats_.degradations += report.degradations.size();

  // Promote this run to the reuse anchor.
  next->ok = report.ok;
  next->degraded = report.degraded;
  // Drop the borrowed pointer into the old context before destroying it.
  ctx.warm.reset();
  current_ = std::move(next);
  return report;
}

void AnalysisServer::cache_insert(std::shared_ptr<const isa::Image> image,
                                  const std::string& annotation_text,
                                  const WcetReport& report) {
  if (options_.report_cache_capacity == 0) return;
  while (report_cache_.size() >= options_.report_cache_capacity) {
    WCET_FAULT_POINT("serve:evict");
    report_cache_.pop_back();
    ++stats_.evictions;
  }
  report_cache_.push_front(CacheEntry{std::move(image), annotation_text, report});
}

} // namespace wcet::serve
