// Persistent analysis server: the Figure-1 pipeline as a long-running
// service instead of a one-shot Analyzer call.
//
// The server keeps the converged artifacts of the last successful run
// (image, AnalysisContext) alive across requests and offers the context
// to the next run as its reuse anchor. When a re-submitted image
// decodes to a supergraph structurally identical to the anchor's, the
// pipeline installs a WarmHandoff (wcet/pipeline.hpp) with per-node and
// per-instance clean verdicts, and each later layer adopts the
// previous result of every item whose inputs compare equal: loop
// bounds, cache recipes and classification rows (on top of a cache
// fixpoint warm-started from the previous states of clean instances),
// block timings, and the results of every sub-ILP whose region inputs
// compare equal, re-solving only the sub-ILPs an edit touches (and
// their ancestors) plus the outer region. Every reuse is *verified,
// never trusted*: a warm report is bit-identical to a cold one by
// construction (the phases demote any verdict the fresh run
// contradicts and fall back to a full cold re-run on any divergence).
//
// On top of the incremental path sits a request-level report LRU keyed
// by exact equality: a repeat submission whose image (isa::Image
// operator==) and annotation text both equal a cached request's is
// served without touching the pipeline at all.
//
// Server telemetry lives in ServeStats alone: reports carry only the
// analysis, and callers read per-request counters as stats() deltas.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>

#include "annot/annotations.hpp"
#include "isa/image.hpp"
#include "mem/hwmodel.hpp"
#include "wcet/analyzer.hpp"

namespace wcet {

class ThreadPool;
struct AnalysisContext;

namespace serve {

struct ServeOptions {
  // Analysis options shared by every interactive request. Fixed per
  // server on purpose: the incremental warm path is only valid between
  // runs with identical options, and the request cache never has to
  // key on them.
  AnalysisOptions analysis;
  // Capacity of the request-level report LRU (exact image + annotation
  // match -> cached WcetReport).
  std::size_t report_cache_capacity = 8;
};

// Cumulative server telemetry, read through AnalysisServer::stats()
// and as text via to_string() (the --stats endpoint of
// cli/wcet_serve.cpp).
struct ServeStats {
  std::uint64_t requests = 0;           // interactive submissions handled
  std::uint64_t fingerprint_hits = 0;   // served from the report cache
  std::uint64_t warm_runs = 0;          // pipeline ran with a WarmHandoff
  std::uint64_t cold_runs = 0;          // pipeline ran cold
  std::uint64_t warm_cache_starts = 0;  // warm cache fixpoint committed
  std::uint64_t warm_fallbacks = 0;     // warm cache attempt diverged -> cold fixpoint
  std::uint64_t path_reuses = 0;        // sub-ILPs adopted unsolved from the previous run
  std::uint64_t dirty_instances = 0;    // cumulative code-dirty instances of warm runs
  // Items warm runs adopted from the previous run after verifying
  // their inputs equal: loop-bound results, per-node cache
  // classification rows and per-node pipeline timings.
  std::uint64_t loop_bounds_adopted = 0;
  std::uint64_t node_rows_adopted = 0;
  std::uint64_t node_timings_adopted = 0;
  std::uint64_t evictions = 0;          // report-cache LRU evictions
  std::uint64_t degradations = 0;       // cumulative degradation-ledger entries

  std::string to_string() const;
};

class AnalysisServer {
public:
  AnalysisServer(const mem::HwConfig& hw, ServeOptions options = {});
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  // Analyzes `image` under the server's fixed options, serving from the
  // report cache or the incremental warm path when possible. Throws the
  // same classified errors as Analyzer::analyze.
  WcetReport submit(const isa::Image& image, const std::string& annotation_text = "");

  const ServeStats& stats() const { return stats_; }

private:
  struct Converged;  // last successful run's artifacts (analysis_server.cpp)
  struct CacheEntry; // report-LRU slot

  WcetReport submit_request(const isa::Image& image, const std::string& annotation_text);
  WcetReport run_pipeline(std::unique_ptr<Converged> next);
  void cache_insert(std::shared_ptr<const isa::Image> image,
                    const std::string& annotation_text, const WcetReport& report);

  mem::HwConfig base_hw_;
  ServeOptions options_;
  ServeStats stats_;
  std::unique_ptr<ThreadPool> pool_;          // shared across requests
  std::unique_ptr<Converged> current_;        // incremental-reuse anchor
  std::list<CacheEntry> report_cache_;        // front = most recent
};

} // namespace serve
} // namespace wcet
