// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed on the benchmark's own thread, around the
// calls into each layer's public functions (the library itself is not
// instrumented). Each span records its name, layer, wall start and end,
// process CPU time across the call (all threads), the enclosing span
// and the request id. Spans stay in memory until the run ends; then
// `write_chrome_trace` writes them as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open without any dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t wall_ns();
std::int64_t process_cpu_ns();

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_start_ns = 0;
  std::int64_t cpu_end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int request = -1; // request id; -1 for set-up work
};

// Self time of one layer within one request: the layer's span durations
// minus the parts their child spans cover.
struct LayerTime {
  double ms = 0;
  double cpu_ms = 0;
};

class Tracer {
public:
  Tracer();

  // Opens a span under the innermost open span; returns its index.
  int open(const char* name, const char* layer, int request);
  void close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Per layer, the self time of every span of `request`.
  std::map<std::string, LayerTime> self_times(int request) const;

  // Chrome trace-event JSON ("X" complete events, microseconds). The
  // request id, parent index and CPU time ride in each event's args.
  bool write_chrome_trace(const std::string& path) const;

private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::int64_t origin_ns_ = 0;
};

// RAII span; a null tracer records nothing.
class Span {
public:
  Span(Tracer* tracer, const char* name, const char* layer, int request)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name, layer, request) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer* tracer_;
  int index_;
};

} // namespace perfbench
