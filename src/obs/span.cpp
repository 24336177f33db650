#include "obs/span.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <sstream>

#include "core/env.hpp"
#include "obs/metrics.hpp"

namespace spiv::obs {

namespace {

/// O_APPEND descriptor for $SPIV_TRACE, opened once; -1 when tracing is
/// off.  Never closed — the trace outlives every span, including ones in
/// static destructors.
int trace_fd() noexcept {
  static const int fd = [] {
    const std::string path = core::env::trace_path();
    if (path.empty()) return -1;
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  }();
  return fd;
}

thread_local int t_span_depth = 0;

/// Stable small id per thread for the trace (kernel tids are noisy across
/// runs; a dense counter diffs cleanly).
std::size_t trace_thread_id() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void write_trace_line(const char* stage, const std::string& detail,
                      std::chrono::steady_clock::time_point start,
                      double elapsed_seconds, int depth) {
  const int fd = trace_fd();
  if (fd < 0) return;
  const auto start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            start.time_since_epoch())
                            .count();
  const auto dur_us = static_cast<long long>(elapsed_seconds * 1e6);
  std::string line = "{\"stage\":\"";
  append_escaped(line, stage);
  line += "\"";
  if (!detail.empty()) {
    line += ",\"detail\":\"";
    append_escaped(line, detail);
    line += "\"";
  }
  std::ostringstream tail;
  tail << ",\"thread\":" << trace_thread_id() << ",\"depth\":" << depth
       << ",\"start_us\":" << start_us << ",\"dur_us\":" << dur_us << "}\n";
  line += tail.str();
  // One write(2) per line: O_APPEND makes the whole line land atomically at
  // the end of the file, so concurrent spans never shear each other.
  [[maybe_unused]] const ssize_t n = ::write(fd, line.data(), line.size());
}

}  // namespace

bool trace_enabled() noexcept { return trace_fd() >= 0; }

Histogram& stage_histogram(const char* stage) {
  return Registry::global().histogram(
      std::string{"spiv_stage_seconds{stage=\""} + stage + "\"}");
}

Span::Span(const char* stage, std::string detail)
    : stage_(stage),
      detail_(std::move(detail)),
      start_(std::chrono::steady_clock::now()),
      depth_(t_span_depth++) {}

Span::Span(Histogram& histogram, const char* stage, std::string detail)
    : Span(stage, std::move(detail)) {
  histogram_ = &histogram;
}

double Span::elapsed_seconds() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

Span::~Span() {
  --t_span_depth;
  if (dismissed_) return;
  const double elapsed = elapsed_seconds();
  (histogram_ ? *histogram_ : stage_histogram(stage_)).observe(elapsed);
  if (trace_enabled())
    write_trace_line(stage_, detail_, start_, elapsed, depth_);
}

}  // namespace spiv::obs
