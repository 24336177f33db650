// spiv::obs — RAII timing spans that attribute wall-time to pipeline
// stages.
//
//   obs::Span span{"synthesis", lyap::to_string(method)};
//
// On destruction the span records its elapsed wall-clock into the global
// registry's `spiv_stage_seconds{stage="<name>"}` histogram, so every
// stage of the pipeline (case-load / close-loop / synthesis / validation /
// store-lookup / store-insert) has an attributable latency distribution.
// In spiv-serve, case-load covers the file read and the request-key memo
// probe (and the parse on a memo miss); close-loop is observed only on the
// full path, never on a memo hit.
//
// With $SPIV_TRACE set to a file path, each span additionally appends one
// JSON line to that file when it closes:
//
//   {"stage":"synthesis","detail":"eq-smt","thread":3,"depth":1,
//    "start_us":12345,"dur_us":678}
//
// Lines are written with a single write(2) to an O_APPEND descriptor, so
// concurrent workers never interleave bytes within a line.  Spans nest via
// a thread-local stack; `depth` in the trace reflects the nesting level at
// the time the span was opened (0 = top level).
#pragma once

#include <chrono>
#include <string>

namespace spiv::obs {

class Span {
 public:
  /// `stage` must outlive the span (string literals in practice); `detail`
  /// is free-form context for the trace line (method/engine/model name).
  explicit Span(const char* stage, std::string detail = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Nesting level of this span on its thread (0 = outermost).
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Elapsed seconds so far (the value the destructor will record).
  [[nodiscard]] double elapsed_seconds() const noexcept;

 private:
  const char* stage_;
  std::string detail_;
  std::chrono::steady_clock::time_point start_;
  int depth_;
};

/// Whether $SPIV_TRACE is active (checked once per process).
[[nodiscard]] bool trace_enabled() noexcept;

}  // namespace spiv::obs
