// spivbench — the service side of the benchmark: a spiv-serve child process
// on a unix socket, and the benchmark's own closed-loop load client.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace spivbench {

/// SIGKILL the live server child, if any (async-signal-safe: the whole-run
/// watchdog calls it from a signal handler).
void kill_live_server() noexcept;

/// user+sys CPU seconds and peak RSS (VmHWM) of a process from /proc.
[[nodiscard]] double process_cpu_seconds(pid_t pid);
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

/// CPUs the calling thread may run on.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Restrict every thread of process `pid` to `cpus`; pid 0 means the
/// calling thread only (threads it starts later inherit the mask).
void pin_threads(pid_t pid, const std::vector<int>& cpus);

/// Prometheus text exposition -> {series: value} (comments dropped).
[[nodiscard]] std::map<std::string, double> parse_exposition(
    const std::string& text);

/// `spiv-serve --listen SOCKET` as a child process.  The constructor returns
/// once the socket accepts connections; the destructor drains it (SIGTERM)
/// and reaps it, escalating to SIGKILL if it does not exit.
class ServerProcess {
 public:
  ServerProcess(const std::string& serve_bin, const std::string& socket,
                const std::string& store_dir, std::size_t jobs,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }
  /// One `metrics` scrape over a fresh connection.
  [[nodiscard]] std::map<std::string, double> scrape() const;
  /// Hard stop (used by the watchdog when a phase overruns): clients see EOF.
  void kill_now() const;
  /// Graceful drain and reap; returns the exit status (or -1).
  int stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct Sample {
  std::size_t connection = 0;
  std::size_t request = 0;  ///< index into the workload's request set
  double send = 0.0;        ///< now_s() timestamps
  double ack = 0.0;         ///< `queued` (or the refusing line)
  double done = 0.0;        ///< `result`
  Outcome outcome = Outcome::Lost;
  std::string status;  ///< status of the `result` line, "" without one
  std::string cache;
  std::string key;
};

struct LoadResult {
  std::vector<Sample> samples;       ///< every attempted request
  double wall = 0.0;                 ///< first send -> last answer
  bool connect_failed = false;
  bool watchdog_fired = false;
};

/// Closed loop over `connections` connections: each connection sends its
/// next request only after the previous one is answered.  `next(c)` yields
/// connection c's next request index, or nullopt to stop that connection.
/// The phase is cut after `hard_limit_s` by killing the server, which turns
/// every outstanding request into a lost one.
[[nodiscard]] LoadResult run_closed_loop(
    ServerProcess& server, std::size_t connections,
    const std::function<std::optional<std::size_t>(std::size_t)>& next,
    const std::function<std::string(std::size_t)>& line_of,
    double hard_limit_s);

}  // namespace spivbench
