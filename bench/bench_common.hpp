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
// pool and store counters) as Prometheus text to FILE, so the flat totals
// in BENCH_*.json gain an attributable stage breakdown.
//
// Every BENCH_*.json file is one record written by write_record: an object
// with "experiment", the machine fields "hostname", "hardware_concurrency"
// and "git_commit", then "jobs", "wall_seconds", the experiment's summary
// fields and a "cells" array of flat objects.  Doubles are spelled as
// printf's %.17g (round-trip exact), NaN and the infinities as null;
// strings are JSON-escaped.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "core/experiments.hpp"
#include "core/format.hpp"
#include "numeric/text.hpp"
#include "obs/metrics.hpp"

// Short git commit of the build, injected by bench/CMakeLists.txt.
#ifndef SPIV_GIT_COMMIT
#define SPIV_GIT_COMMIT "unknown"
#endif

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

/// One field value of a bench record, rendered as JSON on construction.
struct Value {
  Value(bool b) : json{b ? "true" : "false"} {}
  template <std::integral T>
  Value(T n) : json{std::to_string(n)} {}
  Value(double x) : json{std::isfinite(x) ? "" : "null"} {
    if (std::isfinite(x)) numeric::text::append_double(json, x);
  }
  Value(const char* s) : Value(std::string_view{s}) {}
  Value(const std::string& s) : Value(std::string_view{s}) {}
  Value(std::string_view s) : json{'"'} {
    for (const char c : s) {
      if (c == '"' || c == '\\') json += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) {
        json += c;
        continue;
      }
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x",
                    static_cast<unsigned>(c));
      json += escaped;
    }
    json += '"';
  }

  std::string json;
};

/// Named fields, written in order.
using Fields = std::vector<std::pair<std::string, Value>>;

/// Write one bench record to `file` in the schema at the top of this
/// header, stamped with the machine fields; false when it cannot be written.
inline bool write_record(const std::string& file, std::string_view experiment,
                         std::size_t jobs, double wall_seconds,
                         const Fields& summary,
                         const std::vector<Fields>& cells) {
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0)
    std::snprintf(host, sizeof host, "unknown");
  const Fields head = {
      {"experiment", experiment},
      {"hostname", host},
      {"hardware_concurrency", std::thread::hardware_concurrency()},
      {"git_commit", SPIV_GIT_COMMIT},
      {"jobs", jobs},
      {"wall_seconds", wall_seconds}};
  std::string out = "{\n";
  for (const Fields* fields : {&head, &summary})
    for (const auto& [name, value] : *fields)
      out += "  \"" + name + "\": " + value.json + ",\n";
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += i == 0 ? "\n    {" : ",\n    {";
    for (std::size_t f = 0; f < cells[i].size(); ++f)
      out += (f == 0 ? "\"" : ", \"") + cells[i][f].first +
             "\": " + cells[i][f].second.json;
    out += '}';
  }
  out += cells.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return core::write_file(file, out);
}

/// Table I as bench-record cells: one per (strategy, size) cell with at
/// least one case, carrying its per-cell seconds and counts.
inline std::vector<Fields> table1_cells(const core::Table1Result& result) {
  std::vector<Fields> cells;
  // cells and strategies are populated together by run_table1; take the
  // min so a hand-built partial result cannot index out of range.
  const std::size_t rows =
      std::min(result.strategies.size(), result.cells.size());
  for (std::size_t s = 0; s < rows; ++s)
    for (const auto& [size, cell] : result.cells[s]) {
      if (cell.cases == 0) continue;
      cells.push_back(
          {{"method", lyap::to_string(result.strategies[s].method)},
           {"solver", result.strategies[s].backend_name()},
           {"size", size},
           {"total_synth_seconds", cell.total_synth_seconds},
           {"avg_synth_seconds", cell.avg_synth_seconds()},
           {"synthesized", cell.synthesized},
           {"valid", cell.valid},
           {"timeouts", cell.timeouts},
           {"cases", cell.cases}});
    }
  return cells;
}

}  // namespace spiv::bench
