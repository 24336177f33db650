// Shared configuration for the table/figure harnesses.
//
// Every harness reads its budgets from the environment so the full paper
// protocol (hours) and a quick smoke run share one binary:
//   SPIV_QUICK=1            — small sizes, tight budgets (CI-friendly)
//   SPIV_SIZES=3,5,10       — override the benchmark sizes
//   SPIV_SYNTH_TIMEOUT=120  — per-job synthesis budget (seconds)
//   SPIV_VALIDATE_TIMEOUT=60— per-job validation budget (seconds)
//   SPIV_VERBOSE=1          — progress on stderr
//   SPIV_JOBS=4             — worker threads for the experiment job pool
//                             (default: hardware_concurrency; 1 = serial;
//                             every non-timing output is identical for any
//                             value, see core/parallel.hpp)
// A malformed size list or budget warns once on stderr and reads as the
// default.
//
// Every harness additionally accepts `--metrics-out FILE`: at exit it
// writes the process's metrics registry (per-stage latency histograms,
// pool and store counters) as Prometheus text to FILE.  The harnesses
// write only their tables (stdout plus a CSV); timed, machine-readable
// runs are perfbench's job (perfbench/README.md).
#pragma once

#include <cstring>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/experiments.hpp"
#include "core/format.hpp"
#include "obs/metrics.hpp"

namespace spiv::bench {

inline bool env_present(const char* name) {
  const char* v = core::env::raw(name);
  return v && *v;
}

/// One stderr line per variable: the helpers below are called once per
/// harness at startup (table2 reads SPIV_SIZES twice), on the main thread.
inline void warn_ignored(const char* name, const char* value,
                         const char* expected) {
  static std::set<std::string> warned;
  if (warned.insert(name).second)
    std::cerr << "bench: ignoring invalid " << name << "='" << value << "' ("
              << expected << ")\n";
}

/// $name as a non-negative number of seconds; unset or empty reads as
/// `fallback`, a malformed value warns once and reads as `fallback`.
inline double env_seconds(const char* name, double fallback) {
  const char* v = core::env::raw(name);
  if (!v || !*v) return fallback;
  if (const std::optional<double> seconds = core::env::parse_seconds(v))
    return *seconds;
  warn_ignored(name, v, "must be a non-negative number of seconds");
  return fallback;
}

inline bool env_flag(const char* name) {
  const char* v = core::env::raw(name);
  return v && *v && std::string{v} != "0";
}

/// $SPIV_SIZES: the benchmark sizes to run, as a comma-separated list of
/// positive integers ("3,5,10"; empty tokens are skipped).  One malformed
/// token rejects the whole value, with env_seconds' fallback rules.
inline std::vector<std::size_t> env_sizes(
    const std::vector<std::size_t>& fallback) {
  const char* v = core::env::raw("SPIV_SIZES");
  if (!v) return fallback;
  std::vector<std::size_t> out;
  std::stringstream ss{v};
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const std::optional<std::size_t> n = core::env::parse_positive(tok.c_str());
    if (!n) {
      warn_ignored("SPIV_SIZES", v, "must be a comma-separated list of "
                                    "positive integers");
      return fallback;
    }
    out.push_back(*n);
  }
  return out.empty() ? fallback : out;
}

/// Parse `--metrics-out FILE` from a harness command line; empty when the
/// flag is absent.  Unknown arguments warn (the harnesses are otherwise
/// configured entirely through the environment).
inline std::string metrics_out_path(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::cerr << "bench: ignoring unknown argument '" << argv[i]
                << "' (supported: --metrics-out FILE)\n";
    }
  }
  return path;
}

/// Write the global metrics registry's Prometheus exposition to `path`
/// (no-op when `path` is empty).
inline void write_metrics(const std::string& path) {
  if (path.empty()) return;
  if (core::write_file(path, obs::Registry::global().expose() + "\n"))
    std::cout << "(stage-breakdown metrics written to " << path << ")\n";
  else
    std::cerr << "bench: cannot write metrics to " << path << "\n";
}

inline core::ExperimentConfig make_config(double default_synth_timeout,
                                          double default_validate_timeout) {
  core::ExperimentConfig config;
  if (env_flag("SPIV_QUICK")) {
    config.sizes = {3, 5};
    config.synth_timeout_seconds = 10.0;
    config.validate_timeout_seconds = 10.0;
  } else {
    config.synth_timeout_seconds = default_synth_timeout;
    config.validate_timeout_seconds = default_validate_timeout;
  }
  config.sizes = env_sizes(config.sizes);
  config.synth_timeout_seconds =
      env_seconds("SPIV_SYNTH_TIMEOUT", config.synth_timeout_seconds);
  config.validate_timeout_seconds =
      env_seconds("SPIV_VALIDATE_TIMEOUT", config.validate_timeout_seconds);
  config.verbose = env_flag("SPIV_VERBOSE");
  return config;
}

}  // namespace spiv::bench
