// Reproduces paper Table I: synthesis and validation of Lyapunov functions
// for every benchmark size, method, and SDP backend.
//
// Expected shape (cf. EXPERIMENTS.md): eq-smt times out at the largest
// sizes, the numerical methods are fast and validate everywhere, the
// short-step backend is one to two orders of magnitude slower than the
// other two, and the aggressive backend may produce occasional invalid
// candidates on the hardest (LMIa+, largest-size) instances.
//
// Besides the human-readable table and table1.csv, the harness records its
// own wall-clock and worker count in BENCH_table1.json so the parallel
// speedup (SPIV_JOBS=N vs 1) can be tracked by machines.
//
// With SPIV_COLD_WARM=1 and a certificate store (--cache-dir DIR or
// $SPIV_CACHE_DIR), the grid runs twice — cold (computing + filling the
// certificate store) then warm (served from the store) — and
// BENCH_service.json records cold/warm seconds, the hit count, and whether
// the two tables were byte-identical, so the perf trajectory captures
// cache effectiveness.
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "core/format.hpp"
#include "core/parallel.hpp"
#include "store/cert_store.hpp"
#include "verify/verify.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double run_once(const spiv::core::ExperimentConfig& config,
                spiv::core::Table1Result& result) {
  const auto t0 = Clock::now();
  result = spiv::core::run_table1(config);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

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
  store::CertStore* cache = verify::resolve_store(cache_dir);
  config.store = cache;
  const bool cold_warm = bench::env_flag("SPIV_COLD_WARM") && cache != nullptr;
  if (bench::env_flag("SPIV_COLD_WARM") && !cache)
    std::cerr << "table1: SPIV_COLD_WARM=1 ignored (no --cache-dir and "
                 "SPIV_CACHE_DIR unset)\n";

  core::Table1Result result;
  const double wall = run_once(config, result);
  std::cout << core::format_table1(result);
  core::write_file("table1.csv", core::table1_csv(result));
  bench::write_record("BENCH_table1.json", "table1", jobs, wall, {},
                      bench::table1_cells(result));
  std::cout << "(CSV written to table1.csv; harness wall-clock " << wall
            << " s with " << jobs
            << " worker(s) recorded in BENCH_table1.json)\n";

  if (cold_warm) {
    const store::StoreStats before = cache->stats();
    core::Table1Result warm_result;
    const double warm_wall = run_once(config, warm_result);
    const std::uint64_t hits = cache->stats().hits() - before.hits();
    const bool identical =
        core::format_table1(warm_result) == core::format_table1(result);
    bench::write_record(
        "BENCH_service.json", "table1-cold-warm", jobs, wall + warm_wall,
        {{"cold_seconds", wall},
         {"warm_seconds", warm_wall},
         {"speedup", warm_wall > 0.0 ? wall / warm_wall : 0.0},
         {"hits", hits},
         {"cells_identical", identical}},
        {});
    std::cout << "(cold " << wall << " s -> warm " << warm_wall << " s, "
              << hits << " store hit(s), cells "
              << (identical ? "identical" : "DIFFERENT")
              << "; recorded in BENCH_service.json)\n";
  }
  bench::write_metrics(metrics_out);
  return 0;
}
