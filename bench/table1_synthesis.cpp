// Reproduces paper Table I: synthesis and validation of Lyapunov functions
// for every benchmark size, method, and SDP backend.
//
// Expected shape (cf. EXPERIMENTS.md): eq-smt times out at the largest
// sizes, the numerical methods are fast and validate everywhere, the
// short-step backend is one to two orders of magnitude slower than the
// other two, and the aggressive backend may produce occasional invalid
// candidates on the hardest (LMIa+, largest-size) instances.
//
// Besides the human-readable table it writes table1.csv and prints its own
// wall-clock and worker count.  With a certificate store (--cache-dir DIR
// or $SPIV_CACHE_DIR) warm cells replay the stored candidate, verdict and
// synthesis time, so a rerun prints the same table from the store
// (experiments_test's Table1WarmReplayFromStore pins this).
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "core/format.hpp"
#include "core/parallel.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace spiv;
  // This harness takes --cache-dir in addition to the common --metrics-out,
  // so it parses its own arguments instead of bench::metrics_out_path.
  std::string metrics_out, cache_dir;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc) {
      cache_dir = argv[++i];
    } else {
      std::cerr << "bench: ignoring unknown argument '" << argv[i]
                << "' (supported: --metrics-out FILE, --cache-dir DIR)\n";
    }
  }
  core::ExperimentConfig config = bench::make_config(
      /*synth_timeout=*/75.0, /*validate_timeout=*/60.0);
  const std::size_t jobs = core::resolve_jobs(config.jobs);

  // Explicit --cache-dir wins over $SPIV_CACHE_DIR; the resolved store is
  // handed to run_table1 through the config (one resolution point).
  config.store = verify::resolve_store(cache_dir);

  const auto t0 = std::chrono::steady_clock::now();
  const core::Table1Result result = core::run_table1(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::cout << core::format_table1(result);
  core::write_file("table1.csv", core::table1_csv(result));
  std::cout << "(CSV written to table1.csv; harness wall-clock " << wall
            << " s with " << jobs << " worker(s))\n";
  bench::write_metrics(metrics_out);
  return 0;
}
