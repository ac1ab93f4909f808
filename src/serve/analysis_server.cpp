#include "serve/analysis_server.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

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

// The warm handoff carries per-instance verdicts between two supergraph
// expansions, so the expansions must agree on every structural index:
// node <-> (instance, block) assignment, edge endpoints and kinds, and
// the instance tree itself. Any mismatch (an edit that moved a block
// boundary, added an edge, changed inlining depth) voids positional
// reuse entirely — the request falls back to a plain cold run.
bool structure_identical(const cfg::Supergraph& a, const cfg::Supergraph& b) {
  if (a.entry_node() != b.entry_node()) return false;
  if (a.nodes().size() != b.nodes().size() || a.edges().size() != b.edges().size() ||
      a.instances().size() != b.instances().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const cfg::SgNode& x = a.nodes()[i];
    const cfg::SgNode& y = b.nodes()[i];
    if (x.instance != y.instance || x.fn_entry != y.fn_entry ||
        x.block->begin != y.block->begin || x.block->end != y.block->end ||
        x.block->insts.size() != y.block->insts.size()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    const cfg::SgEdge& x = a.edges()[i];
    const cfg::SgEdge& y = b.edges()[i];
    if (x.from != y.from || x.to != y.to || x.kind != y.kind) return false;
  }
  for (std::size_t i = 0; i < a.instances().size(); ++i) {
    const cfg::Instance& x = a.instances()[i];
    const cfg::Instance& y = b.instances()[i];
    if (x.fn_entry != y.fn_entry || x.caller_instance != y.caller_instance ||
        x.call_site_node != y.call_site_node) {
      return false;
    }
  }
  return true;
}

// Per-instance clean verdicts for a structurally identical re-decode
// (same blocks on both sides): an instance is clean when every code
// word of its blocks compares equal to the previous image's. A clean
// verdict feeds the warm cache fixpoint, so it rests on the real words.
std::vector<char> clean_instances(const cfg::Supergraph& sg, const isa::Image& image,
                                  const isa::Image& prev_image) {
  std::vector<char> clean(sg.instances().size(), 1);
  for (const cfg::SgNode& n : sg.nodes()) {
    char& flag = clean[static_cast<std::size_t>(n.instance)];
    for (std::uint32_t pc = n.block->begin; flag != 0 && pc < n.block->end; pc += 4) {
      if (image.read_word(pc) != prev_image.read_word(pc)) flag = 0;
    }
  }
  return clean;
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
  const bool can_warm = prev != nullptr && prev->ok && !prev->degraded &&
                        prev->ctx != nullptr && prev->annotation_text == next->annotation_text;
  const auto install_warm = [&](AnalysisContext& c) {
    if (!can_warm || !structure_identical(*prev->ctx->supergraph, *c.supergraph)) {
      return;
    }
    auto warm = std::make_unique<AnalysisContext::WarmHandoff>();
    warm->prev = prev->ctx.get();
    warm->instance_clean = clean_instances(*c.supergraph, image, *prev->image);
    warm->dirty_instances = static_cast<int>(
        std::count(warm->instance_clean.begin(), warm->instance_clean.end(), 0));
    c.warm = std::move(warm);
  };
  run_figure1(ctx, *pool_, install_warm);

  if (ctx.warm != nullptr) {
    ++stats_.warm_runs;
    stats_.dirty_instances += static_cast<std::uint64_t>(ctx.warm->dirty_instances);
    using Start = analysis::CacheAnalysis::Start;
    if (ctx.warm->cache_start == Start::warm) ++stats_.warm_cache_starts;
    if (ctx.warm->cache_start == Start::fallback) ++stats_.warm_fallbacks;
    stats_.path_reuses += static_cast<std::uint64_t>(ctx.wcet_result.sub_ilps_reused);
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
