#include "trace.hpp"

#include <chrono>
#include <ctime>
#include <fstream>

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Tracer::Tracer() : origin_ns_(wall_ns()) {
  // Reserve up front so recording a span never reallocates mid-run.
  spans_.reserve(1 << 16);
}

int Tracer::open(const char* name, const char* layer, int request) {
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.cpu_start_ns = process_cpu_ns();
  span.start_ns = wall_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = wall_ns();
  span.cpu_end_ns = process_cpu_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost.
  open_.pop_back();
}

std::map<std::string, LayerTime> Tracer::self_times(int request) const {
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.request != request) continue;
    LayerTime& t = out[span.layer];
    t.ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    t.cpu_ms += static_cast<double>(span.cpu_end_ns - span.cpu_start_ns) / 1e6;
    if (span.parent >= 0) {
      LayerTime& p = out[spans_[static_cast<std::size_t>(span.parent)].layer];
      p.ms -= static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      p.cpu_ms -= static_cast<double>(span.cpu_end_ns - span.cpu_start_ns) / 1e6;
    }
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << span.name << "\", \"cat\": \""
        << span.layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(span.start_ns - origin_ns_) / 1e3
        << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"end_us\": "
        << static_cast<double>(span.end_ns - origin_ns_) / 1e3 << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << ", \"cpu_ms\": "
        << static_cast<double>(span.cpu_end_ns - span.cpu_start_ns) / 1e6 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

} // namespace perfbench
