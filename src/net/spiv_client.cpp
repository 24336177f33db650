// spiv-client: benchmark/driver client for a networked spiv-serve.
//
//   ./spiv-client --unix /tmp/spiv.sock --connections 8 --requests 64
//       --request 'cases/paper.spivcase 0 eq-num - sylvester {i}' --json
//
// Opens N concurrent connections (one thread each), sends M requests per
// connection, and reports throughput plus p50/p90/p99 latency.  `{i}` in
// the request tail is replaced by a globally unique request index, so a
// sweep can choose between one hot cache key (no placeholder) and all-cold
// keys (placeholder in the digits position).  --batch B pipelines the
// requests in batch-verify rounds of B; latency is then per round.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"

namespace {

struct Options {
  std::string unix_path;
  std::string tcp;  // HOST:PORT or PORT
  std::string request_tail;
  std::size_t connections = 1;
  std::size_t requests = 16;
  std::size_t batch = 0;  // 0 = one verify per round trip
  double deadline = 0.0;
  bool warm = false;
  bool stats = false;
  bool json = false;
};

struct WorkerResult {
  std::vector<double> latencies;  // seconds per round trip
  std::size_t ok = 0;             // status=valid|invalid
  std::size_t failed = 0;         // timeout|synth-failed|error + error lines
  std::size_t shed = 0;           // busy lines
  bool transport_error = false;
};

void print_usage(std::FILE* to, const char* prog) {
  std::fprintf(
      to,
      "usage: %s (--unix PATH | --tcp [HOST:]PORT) --request 'TAIL' "
      "[options]\n"
      "  TAIL is everything after `verify`, e.g. "
      "'case.spivcase 0 eq-num - sylvester 10 5'; '{i}' in TAIL is\n"
      "  replaced by a unique per-request index (distinct cache keys)\n"
      "  --connections N   concurrent connections (default 1)\n"
      "  --requests N      requests per connection (default 16)\n"
      "  --batch B         pipeline with batch-verify rounds of B\n"
      "  --deadline S      send a per-connection deadline cap first\n"
      "  --warm            one untimed warm-up request before measuring\n"
      "  --stats           print the server stats line when done\n"
      "  --json            JSON summary on stdout\n",
      prog);
}

std::string substitute_index(const std::string& tail, std::size_t index) {
  std::string out = tail;
  const std::string token = "{i}";
  for (std::size_t pos = out.find(token); pos != std::string::npos;
       pos = out.find(token, pos))
    out.replace(pos, token.size(), std::to_string(index));
  return out;
}

bool connect(spiv::net::Client& client, const Options& opt,
             std::string& error) {
  if (!opt.unix_path.empty()) {
    if (client.connect_unix(opt.unix_path)) return true;
    error = client.error();
    return false;
  }
  const auto addr = spiv::net::parse_tcp_address(opt.tcp);
  if (!addr) {
    error = "malformed --tcp address '" + opt.tcp + "'";
    return false;
  }
  if (client.connect_tcp(addr->host, addr->port)) return true;
  error = client.error();
  return false;
}

/// Classify one response line into the worker tallies; true when the line
/// terminates a request (result/busy) as opposed to an ack (queued).
bool classify(const std::string& line, WorkerResult& r) {
  if (line.rfind("busy", 0) == 0) {
    ++r.shed;
    return true;
  }
  if (line.rfind("result", 0) == 0) {
    if (line.find(" status=valid") != std::string::npos ||
        line.find(" status=invalid") != std::string::npos)
      ++r.ok;
    else
      ++r.failed;
    return true;
  }
  if (line.rfind("error", 0) == 0) {
    ++r.failed;
    return true;
  }
  return false;  // queued / ok / idle / stats — keep reading
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WorkerResult run_worker(const Options& opt, std::size_t worker_index) {
  WorkerResult r;
  spiv::net::Client client;
  std::string error;
  if (!connect(client, opt, error)) {
    std::fprintf(stderr, "spiv-client: connection %zu: %s\n", worker_index,
                 error.c_str());
    r.transport_error = true;
    return r;
  }
  // A connection-level shed arrives before any request: the server said
  // `busy connections=N` and closed.
  if (opt.deadline > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "deadline %g", opt.deadline);
    if (!client.send_line(buf)) {
      r.transport_error = true;
      return r;
    }
    const auto ack = client.recv_line();
    if (!ack || ack->rfind("ok deadline=", 0) != 0) {
      if (ack && ack->rfind("busy", 0) == 0) ++r.shed;
      else r.transport_error = true;
      return r;
    }
  }
  const std::size_t base = worker_index * opt.requests;
  auto send_verify = [&](std::size_t index) {
    return client.send_line("verify " +
                            substitute_index(opt.request_tail, base + index));
  };
  if (opt.warm) {
    if (!send_verify(0)) {
      r.transport_error = true;
      return r;
    }
    WorkerResult scratch;
    for (;;) {
      const auto line = client.recv_line();
      if (!line) {
        if (!scratch.shed) r.transport_error = true;
        r.shed += scratch.shed;
        return r;
      }
      if (classify(*line, scratch)) break;
    }
  }
  if (opt.batch == 0) {
    for (std::size_t i = 0; i < opt.requests; ++i) {
      const double t0 = now_seconds();
      if (!send_verify(i)) {
        r.transport_error = true;
        return r;
      }
      for (;;) {
        const auto line = client.recv_line();
        if (!line) {
          r.transport_error = true;
          return r;
        }
        if (classify(*line, r)) {
          r.latencies.push_back(now_seconds() - t0);
          break;
        }
      }
    }
  } else {
    for (std::size_t sent = 0; sent < opt.requests;) {
      const std::size_t round = std::min(opt.batch, opt.requests - sent);
      const double t0 = now_seconds();
      if (!client.send_line("batch-verify " + std::to_string(round))) {
        r.transport_error = true;
        return r;
      }
      for (std::size_t i = 0; i < round; ++i) {
        if (!client.send_line(
                substitute_index(opt.request_tail, base + sent + i))) {
          r.transport_error = true;
          return r;
        }
      }
      for (;;) {
        const auto line = client.recv_line();
        if (!line) {
          r.transport_error = true;
          return r;
        }
        (void)classify(*line, r);
        if (line->rfind("batch-done", 0) == 0) break;
      }
      r.latencies.push_back(now_seconds() - t0);
      sent += round;
    }
  }
  if (opt.stats && worker_index == 0) {
    if (client.send_line("stats")) {
      if (const auto line = client.recv_line())
        std::fprintf(stderr, "%s\n", line->c_str());
    }
  }
  // Plain close, NOT `quit`: quit drains the whole server, which would
  // yank it out from under the other benchmark connections.
  client.close();
  return r;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", argv[i]);
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
    return argv[++i];
  };
  // The value of flag argv[i] through `parse`; exit 2 when it rejects it.
  auto parsed = [&](int& i, auto parse) {
    const char* flag = argv[i];
    const char* value = need_value(i);
    const auto v = parse(value);
    if (!v) {
      std::fprintf(stderr, "invalid %s '%s'\n", flag, value);
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
    return *v;
  };
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (!std::strcmp(argv[i], "--unix")) {
      opt.unix_path = need_value(i);
    } else if (!std::strcmp(argv[i], "--tcp")) {
      opt.tcp = need_value(i);
    } else if (!std::strcmp(argv[i], "--request")) {
      opt.request_tail = need_value(i);
    } else if (!std::strcmp(argv[i], "--connections")) {
      opt.connections = parsed(i, spiv::core::env::parse_positive);
    } else if (!std::strcmp(argv[i], "--requests")) {
      opt.requests = parsed(i, spiv::core::env::parse_positive);
    } else if (!std::strcmp(argv[i], "--batch")) {
      opt.batch = parsed(i, [](const char* v) {
        return std::strcmp(v, "0") ? spiv::core::env::parse_positive(v)
                                   : std::optional<std::size_t>{0};
      });
    } else if (!std::strcmp(argv[i], "--deadline")) {
      opt.deadline = parsed(i, spiv::core::env::parse_seconds);
    } else if (!std::strcmp(argv[i], "--warm")) {
      opt.warm = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      opt.stats = true;
    } else if (!std::strcmp(argv[i], "--json")) {
      opt.json = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      print_usage(stderr, argv[0]);
      return 2;
    }
  }
  if ((opt.unix_path.empty() == opt.tcp.empty()) ||
      opt.request_tail.empty()) {
    print_usage(stderr, argv[0]);
    return 2;
  }

  std::vector<WorkerResult> results(opt.connections);
  const double t0 = now_seconds();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.connections);
    for (std::size_t w = 0; w < opt.connections; ++w)
      threads.emplace_back(
          [&results, &opt, w] { results[w] = run_worker(opt, w); });
    for (std::thread& t : threads) t.join();
  }
  const double wall = now_seconds() - t0;

  std::vector<double> latencies;
  std::size_t ok = 0, failed = 0, shed = 0;
  bool transport_error = false;
  for (const WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
    ok += r.ok;
    failed += r.failed;
    shed += r.shed;
    transport_error = transport_error || r.transport_error;
  }
  std::sort(latencies.begin(), latencies.end());
  const std::size_t answered = ok + failed + shed;
  const double rps = wall > 0.0 ? static_cast<double>(answered) / wall : 0.0;
  const double p50 = percentile(latencies, 0.50);
  const double p90 = percentile(latencies, 0.90);
  const double p99 = percentile(latencies, 0.99);

  if (opt.json) {
    std::printf(
        "{\"connections\":%zu,\"requests_per_connection\":%zu,"
        "\"batch\":%zu,\"answered\":%zu,\"ok\":%zu,\"failed\":%zu,"
        "\"shed\":%zu,\"wall_seconds\":%.6f,\"throughput_rps\":%.3f,"
        "\"latency_seconds\":{\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f},"
        "\"transport_error\":%s}\n",
        opt.connections, opt.requests, opt.batch, answered, ok, failed, shed,
        wall, rps, p50, p90, p99, transport_error ? "true" : "false");
  } else {
    std::printf(
        "answered=%zu ok=%zu failed=%zu shed=%zu wall=%.3fs rps=%.1f "
        "p50=%.6fs p90=%.6fs p99=%.6fs\n",
        answered, ok, failed, shed, wall, rps, p50, p90, p99);
  }
  return transport_error ? 1 : 0;
}
