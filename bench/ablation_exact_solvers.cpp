// Ablation: fraction-free Bareiss vs the multi-modular CRT solver on the
// vech Lyapunov system — where the eq-smt speedup comes from, including
// the size-15/18 rows the paper reports as TO.  The vech vs
// full-Kronecker result is recorded in EXPERIMENTS.md.
//
// The run is also its own exactness gate: it exits 1, with one
// `exact-bench:` line per failing cell, when a finished Bareiss/modular
// pair differs or when a requested size's modular solve does not finish
// within the budget.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/modular.hpp"
#include "model/reduction.hpp"

namespace {

using namespace spiv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* cell(double t, char (&buf)[32]) {
  if (t < 0)
    std::snprintf(buf, sizeof buf, "TO");
  else
    std::snprintf(buf, sizeof buf, "%.3f", t);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_out = bench::metrics_out_path(argc, argv);
  const double budget = bench::env_seconds("SPIV_SYNTH_TIMEOUT", 60.0);
  const std::vector<std::size_t> sizes =
      bench::env_sizes(bench::env_flag("SPIV_QUICK")
                           ? std::vector<std::size_t>{3, 5}
                           : std::vector<std::size_t>{3, 5, 10, 15, 18});

  std::printf("ABLATION — exact linear solve backend on the vech system "
              "(budget %.0fs per cell)\n", budget);
  std::printf("%-8s %6s %6s %14s %14s %10s %8s %8s  %s\n", "model", "dim",
              "vech-N", "bareiss (s)", "modular (s)", "speedup", "primes",
              "same", "elim/crt/rec/ver (s)");
  const std::vector<model::BenchmarkModel> family =
      model::make_benchmark_family();
  std::vector<std::string> failures;
  for (const std::size_t size : sizes) {
    bool found = false;
    for (const auto& bm : family) {
      if (bm.size != size) continue;
      found = true;
      auto mode =
          model::close_loop_single_mode(bm.plant, model::engine_gains_mode0());
      const std::size_t d = mode.a.rows();
      exact::RatMatrix a_exact = exact::rat_matrix_from_doubles(
          mode.a.data().data(), d, d, /*digits=*/0);
      exact::RatMatrix q = exact::RatMatrix::identity(d);
      exact::RatMatrix op = exact::lyapunov_operator_vech(a_exact);
      const std::vector<exact::Rational> rhs_vec = exact::vech(-q);
      exact::RatMatrix rhs{op.rows(), 1};
      for (std::size_t i = 0; i < rhs_vec.size(); ++i) rhs(i, 0) = rhs_vec[i];

      double t_bareiss = -1.0, t_modular = -1.0;
      std::optional<exact::RatMatrix> x_bareiss, x_modular;
      {
        auto t0 = Clock::now();
        try {
          x_bareiss = op.solve(rhs, Deadline::after_seconds(budget));
          if (x_bareiss) t_bareiss = seconds_since(t0);
        } catch (const TimeoutError&) {
        }
      }
      exact::ModularStats stats;
      {
        exact::ModularOptions options;
        options.stats = &stats;
        auto t0 = Clock::now();
        try {
          x_modular = exact::solve_rational_modular(
              op, rhs, Deadline::after_seconds(budget), options);
          if (x_modular) t_modular = seconds_since(t0);
        } catch (const TimeoutError&) {
        }
      }
      const bool both = x_bareiss.has_value() && x_modular.has_value();
      const bool identical = both && *x_bareiss == *x_modular;
      char ratio[32] = "-";
      if (t_bareiss > 0 && t_modular > 0)
        std::snprintf(ratio, sizeof ratio, "%.1fx", t_bareiss / t_modular);
      char b1[32], b2[32], phases[64];
      std::snprintf(phases, sizeof phases, "%.2f/%.2f/%.2f/%.2f",
                    stats.elim_seconds, stats.crt_seconds,
                    stats.reconstruct_seconds, stats.verify_seconds);
      std::printf("%-8s %6zu %6zu %14s %14s %10s %8llu %8s  %s\n",
                  bm.name.c_str(), d, op.rows(), cell(t_bareiss, b1),
                  cell(t_modular, b2), ratio,
                  static_cast<unsigned long long>(stats.primes_used),
                  both ? (identical ? "yes" : "NO") : "-", phases);

      if (both && !identical)
        failures.push_back(bm.name + ": bareiss and modular solutions differ");
      if (!x_modular)
        failures.push_back(bm.name + ": modular solve did not finish");
    }
    if (!found)
      failures.push_back("size " + std::to_string(size) +
                         ": no benchmark model");
  }
  std::printf("\n(TO = timed out at the budget)\n");
  for (const std::string& failure : failures)
    std::printf("exact-bench: %s\n", failure.c_str());
  bench::write_metrics(metrics_out);
  return failures.empty() ? 0 : 1;
}
