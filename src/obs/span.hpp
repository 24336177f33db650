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
// full path, never on a memo hit.  Hot paths resolve their histogram once
// (stage_histogram) and hand it to the span, so closing one takes no
// registry lock; a span that would time work redone elsewhere is
// dismissed and records nothing.
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

class Histogram;

/// The global registry's `spiv_stage_seconds{stage="<stage>"}` histogram
/// (one registry lookup; the reference stays valid for the process).
[[nodiscard]] Histogram& stage_histogram(const char* stage);

class Span {
 public:
  /// `stage` must outlive the span (string literals in practice); `detail`
  /// is free-form context for the trace line (method/engine/model name).
  /// The stage histogram is looked up when the span closes.
  explicit Span(const char* stage, std::string detail = {});
  /// Same, observing into `histogram` (stage_histogram(stage), resolved
  /// once by the caller).
  Span(Histogram& histogram, const char* stage, std::string detail = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Nesting level of this span on its thread (0 = outermost).
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Elapsed seconds so far (the value the destructor will record).
  [[nodiscard]] double elapsed_seconds() const noexcept;

  /// Record nothing on close: neither the histogram nor the trace line.
  void dismiss() noexcept { dismissed_ = true; }

 private:
  Histogram* histogram_ = nullptr;  ///< nullptr = look up by stage on close
  const char* stage_;
  std::string detail_;
  std::chrono::steady_clock::time_point start_;
  int depth_;
  bool dismissed_ = false;
};

/// Whether $SPIV_TRACE is active (checked once per process).
[[nodiscard]] bool trace_enabled() noexcept;

}  // namespace spiv::obs
