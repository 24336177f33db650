// spivbench — the workloads and the metric catalogue they report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lyapunov/synthesis.hpp"

namespace spivbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record_reference = false;
  std::string serve_bin;  ///< spiv-serve executable
  std::string self_bin;   ///< this executable (setup probes)
  std::string reference_dir;
  std::string work_dir;   ///< scratch space for sockets, stores, traces
  std::size_t nproc = 1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< shed, errored, timed out, or lost
  std::size_t wrong_verdicts = 0;
  bool reference_missing = false;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  [[nodiscard]] bool correct() const {
    return wrong_verdicts == 0 && !reference_missing;
  }
};

/// Every per-layer metric (name, unit); a traced run reports all of them,
/// with 0 for layers the workload never enters.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalogue();

/// Per-layer values from a traced run: every catalogue entry, filled from
/// `values` (missing = 0).
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values);

/// Layer samples keyed by metric name, reduced to medians by finish().
class LayerSamples {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void set(const std::string& name, double value) { fixed_[name] = value; }
  [[nodiscard]] std::map<std::string, double> finish() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> fixed_;
};

/// "size18" style tag / metric suffix of a plant size.
[[nodiscard]] std::string size_tag(std::size_t size);
/// Metric-safe spelling of a method or backend name ("LMIa+" -> "lmia_plus").
[[nodiscard]] std::string metric_safe(std::string name);

/// Print the self-time breakdown: per (layer, tag), the span count and the
/// median and total self time, with each layer's share of all self time.
void print_breakdown(const std::vector<SpanRec>& spans,
                     const std::vector<double>& self);

/// Measured cost of recording one span (seconds).
[[nodiscard]] double span_cost_seconds();

/// One synthesis replayed through the public layer calls.  The LMI methods
/// are composed as lyap::synthesize composes them (sdp::make_lyapunov_lmi +
/// sdp::solve_lmi, one span each under `parent`); the others call
/// lyap::synthesize itself.
struct SynthReplay {
  std::optional<spiv::lyap::Candidate> candidate;  ///< nullopt: failed
  int iterations = -1;  ///< SDP iterations, -1 for the non-LMI methods
};
[[nodiscard]] SynthReplay replay_synthesis(
    const spiv::numeric::Matrix& a, spiv::lyap::Method method,
    const spiv::lyap::SynthesisOptions& options, Tracer* tr,
    std::uint64_t parent, std::uint64_t req);

[[nodiscard]] RunResult run_service_workload(const Options& opt, bool warm);
[[nodiscard]] RunResult run_table1_workload(const Options& opt);

/// The exact layer, traced: the eq-smt cells at sizes 10/15/18 (mode 0, the
/// paper's TO cells among them) replayed one at a time through
/// exact::solve_rational_modular, checked against the Table I reference,
/// plus one size-15 solve at jobs=1 against the replayed jobs=nproc one.
/// Sets `exact.*`,
/// `lyapunov.synth_ms.eq_smt` and `exact.parallel_speedup` in `out`;
/// returns the wrong count.
[[nodiscard]] std::size_t trace_exact_layer(const Options& opt,
                                            LayerSamples& out);

}  // namespace spivbench
