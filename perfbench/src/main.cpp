// spivbench — the repository benchmark (see perfbench/README.md).
//
//   spivbench --workload warm-hits|cold-fill|paper-table1 --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --reference-dir DIR
//             --work-dir DIR [--commit HASH] [--record-reference]
//
// Prints human-readable `#` lines, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer ones.  Exits 1 when any verdict differs from
// the committed reference, 2 on bad usage or a build that is not optimized.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "model/reduction.hpp"
#include "service_load.hpp"
#include "workloads.hpp"

#ifndef SPIVBENCH_BUILD_TYPE
#define SPIVBENCH_BUILD_TYPE "unknown"
#endif

namespace {

constexpr unsigned kRunLimitSeconds = 170;

void on_alarm(int) {
  spivbench::kill_live_server();
  static const char msg[] = "spivbench: run exceeded its time limit\n";
  (void)!::write(STDERR_FILENO, msg, sizeof msg - 1);
  ::_exit(3);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: spivbench --workload warm-hits|cold-fill|paper-table1 "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH "
               "--reference-dir DIR --work-dir DIR [--commit HASH] "
               "[--record-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spivbench;
  if (argc == 2 && std::strcmp(argv[1], "--setup-probe") == 0) {
    const double t0 = now_s();
    (void)spiv::model::benchmark_family();
    std::printf("%.9f\n", now_s() - t0);
    return 0;
  }

  Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " requires a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() == "1";
      else if (a == "--serve-bin") opt.serve_bin = value();
      else if (a == "--reference-dir") opt.reference_dir = value();
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--commit") commit = value();
      else if (a == "--record-reference") opt.record_reference = true;
      else throw std::invalid_argument("unknown argument " + a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spivbench: %s\n", e.what());
      return usage();
    }
  }
  const bool service = opt.workload == "warm-hits" || opt.workload == "cold-fill";
  if ((!service && opt.workload != "paper-table1") || opt.work_dir.empty() ||
      opt.reference_dir.empty() || (service && opt.serve_bin.empty()) ||
      !(opt.seconds > 0.0))
    return usage();

  // A debug build must never become the baseline.
  const std::string build_type = SPIVBENCH_BUILD_TYPE;
  if (build_type != "RelWithDebInfo" && build_type != "Release") {
    std::fprintf(stderr,
                 "spivbench: refusing a %s build (RelWithDebInfo or Release "
                 "only)\n",
                 build_type.c_str());
    return 2;
  }

  ::signal(SIGALRM, on_alarm);
  ::alarm(kRunLimitSeconds);

  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.self_bin = std::filesystem::read_symlink("/proc/self/exe").string();
  std::filesystem::create_directories(opt.work_dir);
  char host[256] = "unknown";
  ::gethostname(host, sizeof host - 1);
  std::printf("# stamp host=%s nproc=%zu commit=%s build=%s workload=%s "
              "seed=%llu seconds=%g trace=%d\n",
              host, opt.nproc, commit.c_str(), build_type.c_str(),
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult res;
  try {
    res = service ? run_service_workload(opt, opt.workload == "warm-hits")
                  : run_table1_workload(opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "spivbench: %s\n", e.what());
    return 1;
  }

  const double failed_frac =
      res.attempted ? static_cast<double>(res.failed) / res.attempted : 1.0;
  std::printf("# failed_frac = %.6f ratio (%zu of %zu)\n", failed_frac,
              res.failed, res.attempted);
  std::printf("# wrong_verdicts = %zu count\n", res.wrong_verdicts);
  std::string json = "{\"correct\": ";
  json += res.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("# %s = %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct() ? 0 : 1;
}
