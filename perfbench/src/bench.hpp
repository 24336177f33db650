// spivbench — the repository benchmark's pure building blocks: the seeded
// request generator, the protocol reply parser, latency percentiles, the
// in-memory span tracer and its self-time computation, and the reference
// files that gate correctness.  Everything here is deterministic and free of
// sockets or processes, so tests/bench_test.cpp covers it directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace spivbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a fixed process-wide epoch (all spans share it).
[[nodiscard]] double now_s();

// ------------------------------------------------------------- generator

/// splitmix64: tiny, portable, and identical on every platform (the standard
/// distributions are implementation-defined, so they would make the stream
/// depend on the standard library).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform draw from [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// One `verify` request of the service workloads.  Engine and digits are
/// fixed for every request: sylvester, 10 digits.
struct ServiceRequest {
  std::string case_name;  ///< e.g. "size18" (a file <case>.spivcase)
  std::size_t size = 0;   ///< plant order
  std::size_t mode = 0;
  std::string method;   ///< protocol method name ("eq-num", "LMIa+", ...)
  std::string backend;  ///< protocol backend name, "-" for non-LMI methods

  /// Reference key of the request: "<case>/<mode>/<method>/<backend>".
  [[nodiscard]] std::string id() const;
  /// The argument tail after `verify`.
  [[nodiscard]] std::string tail(const std::string& cases_dir,
                                 double timeout_seconds) const;
};

/// The float-valued plants of the paper's family, one per size.
[[nodiscard]] const std::vector<std::size_t>& service_sizes();

/// warm-hits working set: 5 plants x 2 modes x {eq-num, modal} = 20 keys.
[[nodiscard]] std::vector<ServiceRequest> warm_set();
/// cold-fill set: 5 plants x 2 modes x {eq-num, modal,
/// LMI/LMIa/LMIa+ x newton-ac/fast-ipm} = 80 distinct requests.
[[nodiscard]] std::vector<ServiceRequest> cold_set();

/// Per-connection rng of a workload seed (independent lanes).
[[nodiscard]] Rng connection_rng(std::uint64_t seed, std::size_t connection);
/// Seeded Fisher-Yates permutation of [0, n).
[[nodiscard]] std::vector<std::size_t> seeded_order(std::uint64_t seed,
                                                    std::size_t n);

// ---------------------------------------------------------- reply parser

enum class ReplyKind { Queued, Result, Busy, Error, BatchDone, Other };

struct Reply {
  ReplyKind kind = ReplyKind::Other;
  std::size_t id = 0;  ///< request id (queued/result/busy), 0 otherwise
  std::string status;  ///< result only
  std::string cache;   ///< result only
  std::string key;     ///< result only
};

/// Classify one server line.
[[nodiscard]] Reply parse_reply(const std::string& line);

/// Outcome class of one request: a verdict (`valid`/`invalid`), shed with
/// `busy`, an `error` or `synth-failed` answer (or a refusing line instead
/// of `queued`), a `timeout` answer, or lost (connection died / watchdog
/// fired).  Everything but Ok counts in `failed` and as a latency miss.
enum class Outcome { Ok, Busy, Error, Timeout, Lost };

/// Outcome of a request whose last line was `reply`: the `result` line, or a
/// first line that was not `queued`.
[[nodiscard]] Outcome outcome_of(const Reply& reply);

// ------------------------------------------------------------- statistics

/// Band for the median: +-25%, i.e. the interquartile mean.  A narrower band
/// sat inside the size-10 group of cold-fill, whose latency swung twice as
/// much as the host's CPU speed from run to run (spread 27% against 17%).
/// Upper percentiles keep the +-5% default so the slowest outliers stay out
/// of the band.
inline constexpr double kP50Window = 0.25;

/// Percentile `p` in [0, 1] of `values` with `misses` extra samples that
/// count as missing every limit (each worth `miss_value`, which must exceed
/// any real sample).  To stay steady where the sample mixes well-separated
/// groups (plant sizes, strategies), the result is the mean of the sorted
/// samples whose ranks lie within +-`window` of p (at least one sample).
[[nodiscard]] double percentile(std::vector<double> values, std::size_t misses,
                                double miss_value, double p,
                                double window = 0.05);

/// Plain median (middle element average); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

// ------------------------------------------------------------------ spans

struct SpanRec {
  const char* name = "";  ///< layer name, a string literal
  std::string tag;        ///< size / method / backend qualifier ("" = none)
  double start = 0.0;     ///< now_s() seconds
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request the span belongs to
};

/// In-memory span recorder.  Each thread appends to its own buffer (no lock
/// on the hot path); collect() merges them once every writer has stopped.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(SpanRec rec);
  /// Every span recorded so far, sorted by start time.
  [[nodiscard]] std::vector<SpanRec> collect() const;

 private:
  struct Buffer {
    const Tracer* owner = nullptr;
    std::vector<SpanRec> spans;
  };
  std::vector<SpanRec>& local();

  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards buffers_ (registration, collect)
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// RAII span: opened on construction, recorded on destruction.  With a null
/// tracer it only keeps the id/parent plumbing (untraced replays).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent,
       std::uint64_t request, std::string tag = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }
  [[nodiscard]] double elapsed() const { return now_s() - rec_.start; }
  /// Qualify the span once its outcome is known (e.g. hit / miss).
  void set_tag(std::string tag) { rec_.tag = std::move(tag); }

 private:
  Tracer* tracer_;
  SpanRec rec_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other, run on other threads, or stick out of the parent).
[[nodiscard]] std::vector<double> self_times(const std::vector<SpanRec>& spans);

/// Write spans as JSON lines (name, tag, start/end in µs, ids).
void write_jsonl(const std::string& path, const std::vector<SpanRec>& spans);

// -------------------------------------------------------------- reference

/// A reference file: tab-separated `kind  name  value` lines, '#' comments.
using Reference = std::map<std::string, std::string>;  ///< "kind\tname" -> value

[[nodiscard]] std::optional<Reference> read_reference(const std::string& path);
void write_reference(const std::string& path, const Reference& ref,
                     const std::string& header);

/// 128-bit hex digest of a string (two FNV-1a lanes).
[[nodiscard]] std::string digest(const std::string& bytes);

}  // namespace spivbench
