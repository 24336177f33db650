#include "service_load.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <latch>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "net/client.hpp"

extern char** environ;

namespace spivbench {

namespace {
std::atomic<pid_t> g_live_server{0};
}  // namespace

void kill_live_server() noexcept {
  const pid_t pid = g_live_server.load();
  if (pid > 0) ::kill(pid, SIGKILL);
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/stat"};
  std::string text((std::istreambuf_iterator<char>(in)), {});
  // Fields after the parenthesised command name; utime/stime are fields
  // 14 and 15 of the whole line, i.e. the 12th and 13th after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is{text.substr(close + 2)};
  std::string tok;
  double utime = 0.0, stime = 0.0;
  for (int field = 3; is >> tok && field <= 15; ++field) {
    if (field == 14) utime = std::stod(tok);
    if (field == 15) stime = std::stod(tok);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  return 0.0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  if (out.empty()) out.push_back(0);
  return out;
}

void pin_threads(pid_t pid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (pid == 0) {
    (void)::sched_setaffinity(0, sizeof set, &set);
    return;
  }
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    const std::string tid = task.path().filename().string();
    // A thread that exits meanwhile just fails the call.
    (void)::sched_setaffinity(static_cast<pid_t>(std::stol(tid)), sizeof set,
                              &set);
  }
}

std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    try {
      out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
      // "+Inf"-style values are not needed for deltas.
    }
  }
  return out;
}

// ------------------------------------------------------------ ServerProcess

ServerProcess::ServerProcess(const std::string& serve_bin,
                             const std::string& socket,
                             const std::string& store_dir, std::size_t jobs,
                             const std::string& log_path)
    : socket_(socket) {
  const std::string jobs_text = std::to_string(jobs);
  std::vector<std::string> args = {serve_bin,   "--listen",    socket,
                                   "--jobs",    jobs_text,     "--cache-dir",
                                   store_dir,   "--max-connections", "64"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc =
      ::posix_spawn(&pid_, serve_bin.c_str(), &actions, nullptr, argv.data(),
                    environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + serve_bin);
  }
  g_live_server = pid_;
  // Ready when the socket accepts; give up if the child dies first.  Polled
  // finely: a cold-fill set-up takes a few milliseconds in all.
  for (int attempt = 0; attempt < 30000; ++attempt) {
    spiv::net::Client probe;
    if (probe.connect_unix(socket_)) return;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_live_server = 0;
      throw std::runtime_error("spiv-serve exited during start-up (see " +
                               log_path + ")");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  kill_now();
  stop();
  throw std::runtime_error("spiv-serve did not start listening");
}

ServerProcess::~ServerProcess() { stop(); }

std::map<std::string, double> ServerProcess::scrape() const {
  spiv::net::Client c;
  if (!c.connect_unix(socket_) || !c.send_line("metrics")) return {};
  std::string text;
  while (auto line = c.recv_line()) {
    if (*line == "# EOF") break;
    text += *line + "\n";
  }
  return parse_exposition(text);
}

void ServerProcess::kill_now() const {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

int ServerProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  int result = -1;
  for (int i = 0; i < 1000 && result == -1; ++i) {  // ~10 s graceful drain
    if (::waitpid(pid_, &status, WNOHANG) == pid_)
      result = status;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (result == -1) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  g_live_server = 0;
  return result;
}

// ------------------------------------------------------------ load client

namespace {

/// One request round trip on an established connection.
void round_trip(spiv::net::Client& client, const std::string& line,
                Sample& s) {
  s.send = now_s();
  if (!client.send_line(line)) return;  // Lost
  for (bool acked = false;;) {
    const auto text = client.recv_line();
    if (!text) return;  // Lost
    const Reply r = parse_reply(*text);
    if (!acked) {
      s.ack = now_s();
      acked = true;
      if (r.kind != ReplyKind::Queued) {  // busy, or refused
        s.outcome = outcome_of(r);
        s.done = s.ack;
        return;
      }
      continue;
    }
    if (r.kind != ReplyKind::Result) continue;
    s.done = now_s();
    s.status = r.status;
    s.cache = r.cache;
    s.key = r.key;
    s.outcome = outcome_of(r);
    return;
  }
}

}  // namespace

LoadResult run_closed_loop(
    ServerProcess& server, std::size_t connections,
    const std::function<std::optional<std::size_t>(std::size_t)>& next,
    const std::function<std::string(std::size_t)>& line_of,
    double hard_limit_s) {
  LoadResult result;
  std::vector<spiv::net::Client> clients(connections);
  for (auto& c : clients)
    if (!c.connect_unix(server.socket())) result.connect_failed = true;
  if (result.connect_failed) return result;

  std::vector<std::vector<Sample>> per_conn(connections);
  std::mutex mutex;  // guards finished / cv for the watchdog
  std::condition_variable cv;
  bool finished = false;
  std::atomic<bool> fired{false};
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    const bool done = cv.wait_for(
        lock, std::chrono::duration<double>(hard_limit_s),
        [&] { return finished; });
    if (!done) {
      fired = true;
      server.kill_now();
    }
  });

  std::latch start(static_cast<std::ptrdiff_t>(connections));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c)
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      while (const auto idx = next(c)) {
        Sample s;
        s.connection = c;
        s.request = *idx;
        round_trip(clients[c], line_of(*idx), s);
        const bool lost = s.outcome == Outcome::Lost;
        per_conn[c].push_back(std::move(s));
        if (lost) break;  // connection is gone
      }
    });
  for (auto& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();
  result.watchdog_fired = fired;

  double first = 0.0, last = 0.0;
  bool any = false;
  for (auto& v : per_conn)
    for (Sample& s : v) {
      const double end = s.done > 0.0 ? s.done : s.send;
      first = any ? std::min(first, s.send) : s.send;
      last = any ? std::max(last, end) : end;
      any = true;
      result.samples.push_back(std::move(s));
    }
  result.wall = any ? last - first : 0.0;
  return result;
}

}  // namespace spivbench
