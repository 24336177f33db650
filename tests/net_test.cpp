// Tests for the socket transport: concurrent connections, out-of-order
// completion, admission shedding, graceful drain, batch pipelining, and
// parser robustness against hostile input.  The service::Handler hook
// substitutes deterministic canned outcomes (with scripted sleeps) for the
// real pipeline, so every scheduling property here is reproducible.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "model/serialize.hpp"
#include "model/switched_pi.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"

namespace spiv::net {
namespace {

using namespace std::chrono_literals;

/// Canned handler: `sleep:<ms>` as the case file sleeps that long, then
/// every request answers `status=valid`.  No case files, no kernels.
service::Handler canned_handler() {
  return [](const service::Request& req, store::CertStore*, double,
            const CancelToken&) {
    if (req.case_file.rfind("sleep:", 0) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::stoi(req.case_file.substr(6))));
    return service::Response{
        verify::Status::Valid,
        "result id=" + std::to_string(req.id) + " status=valid case=" +
            req.case_file};
  };
}

/// One verify line with a scripted handler sleep.
std::string verify_line(int sleep_ms) {
  return "verify sleep:" + std::to_string(sleep_ms) +
         " 0 eq-num - sylvester 10";
}

/// Server on a fresh unix socket, run() on a background thread.
class NetTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
    server_.reset();
    ::unlink(path_.c_str());
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  void start(ServerOptions options) {
    if (!options.service.handler) options.service.handler = canned_handler();
    launch(std::move(options));
  }

  /// The real pipeline (no injected handler) over `store`.
  void start_real(store::CertStore* store) {
    ServerOptions options;
    options.service.store = store;
    options.service.jobs = 2;
    launch(std::move(options));
  }

  void launch(ServerOptions options) {
    static std::atomic<int> counter{0};
    path_ = "/tmp/spiv_net_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".sock";
    options.unix_path = path_;
    if (options.service.jobs == 0) options.service.jobs = 4;
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
    thread_ = std::thread([this] { run_result_ = server_->run(); });
  }

  /// A per-test scratch directory holding the size-3 benchmark case.
  const std::string& dir() {
    if (dir_.empty()) {
      dir_ = std::filesystem::temp_directory_path().string() +
             "/spiv_net_test_" + std::to_string(::getpid());
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
      for (const auto& bm : model::benchmark_family())
        if (bm.name == "size3") {
          std::ofstream out{dir_ + "/size3.spivcase"};
          model::write_case(out, bm);
        }
    }
    return dir_;
  }

  /// A warm-able verify request on the size-3 case.
  std::string size3_tail() {
    return dir() + "/size3.spivcase 0 eq-num - sylvester 10";
  }

  static std::uint64_t jobs_executed() {
    return obs::Registry::global()
        .counter("spiv_pool_jobs_executed_total")
        .value();
  }

  static std::int64_t outbox_bytes() {
    return obs::Registry::global().gauge("spiv_net_outbox_bytes").value();
  }

  [[nodiscard]] Client connect() {
    Client client;
    EXPECT_TRUE(client.connect_unix(path_)) << client.error();
    return client;
  }

  /// Read until `n` request-terminating lines (result/busy) arrive;
  /// returns every line seen.  Fails the test on early EOF.
  static std::vector<std::string> read_responses(Client& client,
                                                 std::size_t n) {
    std::vector<std::string> lines;
    std::size_t done = 0;
    while (done < n) {
      const auto line = client.recv_line();
      if (!line) {
        ADD_FAILURE() << "EOF after " << done << "/" << n << " responses";
        break;
      }
      lines.push_back(*line);
      if (line->rfind("result", 0) == 0 || line->rfind("busy", 0) == 0)
        ++done;
    }
    return lines;
  }

  static std::size_t count_prefix(const std::vector<std::string>& lines,
                                  const std::string& prefix) {
    std::size_t n = 0;
    for (const auto& line : lines)
      if (line.rfind(prefix, 0) == 0) ++n;
    return n;
  }

  std::string path_;
  std::string dir_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  int run_result_ = -1;
};

TEST_F(NetTest, SoakManyConcurrentConnections) {
  // The acceptance bar: >= 32 concurrent connections multiplexed onto one
  // pool, every request answered, nothing dropped or blocked.
  constexpr std::size_t kConns = 32;
  constexpr std::size_t kRequests = 12;
  ServerOptions options;
  options.max_connections = kConns + 4;
  start(std::move(options));

  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.emplace_back([this, c, &answered] {
      Client client;
      ASSERT_TRUE(client.connect_unix(path_)) << client.error();
      // Pipeline everything, then collect: stresses per-connection outbox
      // ordering under cross-connection interleaving.
      for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(client.send_line(verify_line((c + i) % 3)));
      const auto lines = read_responses(client, kRequests);
      answered.fetch_add(count_prefix(lines, "result"));
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), kConns * kRequests);
}

TEST_F(NetTest, CompletionsArriveOutOfOrder) {
  start(ServerOptions{});
  Client client = connect();
  ASSERT_TRUE(client.send_line(verify_line(400)));  // id=1, slow
  ASSERT_TRUE(client.send_line(verify_line(0)));    // id=2, fast
  const auto lines = read_responses(client, 2);
  std::vector<std::string> results;
  for (const auto& line : lines)
    if (line.rfind("result", 0) == 0) results.push_back(line);
  ASSERT_EQ(results.size(), 2u);
  // The fast request overtakes the slow one: out-of-order completion with
  // per-request tags is the whole point of the id field.
  EXPECT_EQ(results[0].rfind("result id=2", 0), 0u) << results[0];
  EXPECT_EQ(results[1].rfind("result id=1", 0), 0u) << results[1];
}

TEST_F(NetTest, AdmissionControlShedsWithBusyInsteadOfBlocking) {
  ServerOptions options;
  options.service.max_inflight = 2;
  start(std::move(options));
  Client client = connect();
  // 8 requests pipelined against 2 admission slots held for 400 ms: the
  // event loop parses all lines long before a slot frees, so at least 6
  // are shed -- answered immediately with `busy`, never queued, never
  // blocking the connection.
  constexpr std::size_t kTotal = 8;
  for (std::size_t i = 0; i < kTotal; ++i)
    ASSERT_TRUE(client.send_line(verify_line(400)));
  const auto lines = read_responses(client, kTotal);
  const std::size_t busy = count_prefix(lines, "busy");
  const std::size_t results = count_prefix(lines, "result");
  EXPECT_EQ(busy + results, kTotal);
  EXPECT_GE(busy, 4u);
  EXPECT_GE(results, 2u);
  for (const auto& line : lines) {
    if (line.rfind("busy", 0) == 0)
      EXPECT_NE(line.find(" inflight="), std::string::npos) << line;
  }
}

TEST_F(NetTest, GracefulDrainDeliversEveryInflightResponse) {
  start(ServerOptions{});
  Client client = connect();
  constexpr std::size_t kInflight = 4;
  for (std::size_t i = 0; i < kInflight; ++i)
    ASSERT_TRUE(client.send_line(verify_line(300)));
  std::this_thread::sleep_for(50ms);  // let the loop admit them
  server_->request_drain();
  // Zero dropped in-flight responses: all four results arrive after the
  // drain began, then the server closes the connection and run() returns.
  const auto lines = read_responses(client, kInflight);
  EXPECT_EQ(count_prefix(lines, "result"), kInflight);
  EXPECT_FALSE(client.recv_line().has_value());  // clean EOF
  thread_.join();
  EXPECT_EQ(run_result_, 0);
  // Draining (now drained) server accepts no new connections.
  Client late;
  EXPECT_FALSE(late.connect_unix(path_));
}

TEST_F(NetTest, SigtermTriggersGracefulDrain) {
  start(ServerOptions{});
  server_->install_signal_handlers();
  Client client = connect();
  ASSERT_TRUE(client.send_line(verify_line(300)));
  std::this_thread::sleep_for(50ms);
  ::raise(SIGTERM);
  const auto lines = read_responses(client, 1);
  EXPECT_EQ(count_prefix(lines, "result"), 1u);
  EXPECT_FALSE(client.recv_line().has_value());
  thread_.join();
  EXPECT_EQ(run_result_, 0);
}

TEST_F(NetTest, QuitFromOneSessionDrainsTheWholeServer) {
  start(ServerOptions{});
  Client a = connect();
  Client b = connect();
  ASSERT_TRUE(b.send_line(verify_line(200)));
  std::this_thread::sleep_for(50ms);
  ASSERT_TRUE(a.send_line("quit"));
  // B's in-flight request still completes before the server goes down.
  const auto lines = read_responses(b, 1);
  EXPECT_EQ(count_prefix(lines, "result"), 1u);
  EXPECT_FALSE(a.recv_line().has_value());
  EXPECT_FALSE(b.recv_line().has_value());
  thread_.join();
  EXPECT_EQ(run_result_, 0);
}

TEST_F(NetTest, WaitPausesOnlyThatConnection) {
  start(ServerOptions{});
  Client slow = connect();
  Client fast = connect();
  ASSERT_TRUE(slow.send_line(verify_line(500)));
  ASSERT_TRUE(slow.send_line("wait"));
  std::this_thread::sleep_for(50ms);
  // While `slow` is parked on its barrier, other connections keep flowing.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(fast.send_line(verify_line(0)));
  const auto fast_lines = read_responses(fast, 1);
  const auto fast_elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(count_prefix(fast_lines, "result"), 1u);
  EXPECT_LT(fast_elapsed, 400ms) << "fast connection stalled behind `wait`";
  // The barrier releases with `idle` once the slow request lands.
  const auto slow_lines = read_responses(slow, 1);
  EXPECT_EQ(count_prefix(slow_lines, "result"), 1u);
  const auto idle = slow.recv_line();
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(*idle, "idle");
}

TEST_F(NetTest, ConnectionCapShedsWithBusyLine) {
  ServerOptions options;
  options.max_connections = 1;
  start(std::move(options));
  Client first = connect();
  ASSERT_TRUE(first.send_line(verify_line(0)));
  (void)read_responses(first, 1);  // connection definitely registered
  Client second;
  ASSERT_TRUE(second.connect_unix(path_)) << second.error();
  const auto line = second.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("busy connections=", 0), 0u) << *line;
  EXPECT_FALSE(second.recv_line().has_value());  // then closed
}

TEST_F(NetTest, BatchVerifyAnswersEveryMemberAndSummarizes) {
  start(ServerOptions{});
  Client client = connect();
  ASSERT_TRUE(client.send_line("batch-verify 3"));
  ASSERT_TRUE(client.send_line("sleep:0 0 eq-num - sylvester 10"));
  ASSERT_TRUE(client.send_line("this is not a verify argument tail"));
  ASSERT_TRUE(client.send_line("sleep:50 0 eq-num - sylvester 10"));
  std::vector<std::string> lines;
  for (;;) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "EOF before batch-done";
    lines.push_back(*line);
    if (line->rfind("batch-done", 0) == 0) break;
  }
  EXPECT_EQ(count_prefix(lines, "queued ids=1-3 batch=3"), 1u);
  EXPECT_EQ(count_prefix(lines, "result"), 3u);
  EXPECT_EQ(lines.back(), "batch-done ids=1-3 ok=2 failed=1 shed=0");
}

TEST_F(NetTest, TruncatedBatchStillReportsArrivedMembers) {
  start(ServerOptions{});
  Client client = connect();
  ASSERT_TRUE(client.send_line("batch-verify 3"));
  ASSERT_TRUE(client.send_line("sleep:0 0 eq-num - sylvester 10"));
  client.shutdown_write();  // EOF with 2 members never sent
  std::vector<std::string> lines;
  while (const auto line = client.recv_line()) lines.push_back(*line);
  EXPECT_EQ(count_prefix(lines, "error batch truncated (2 member"), 1u);
  EXPECT_EQ(count_prefix(lines, "result id=1"), 1u);
  EXPECT_EQ(count_prefix(lines, "batch-done ids=1-3 ok=1 failed=0 shed=0"),
            1u);
}

TEST_F(NetTest, DeadlineCapAcknowledgedAndCarriedIntoRequests) {
  // The cap's effect on the budget is covered by the service-layer tests;
  // here the protocol round trip: ack, and `off` resets.
  start(ServerOptions{});
  Client client = connect();
  ASSERT_TRUE(client.send_line("deadline 2.5"));
  auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ok deadline=2.5");
  ASSERT_TRUE(client.send_line("deadline off"));
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ok deadline=off");
  ASSERT_TRUE(client.send_line("deadline banana"));
  line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("error deadline", 0), 0u) << *line;
}

TEST_F(NetTest, BinaryGarbageGetsErrorLinesWithoutKillingTheServer) {
  start(ServerOptions{});
  Client client = connect();
  // Binary garbage with embedded newlines: each chunk parses as an unknown
  // command and earns an error line; the connection survives.
  ASSERT_TRUE(client.send_line(std::string{"\x01\x02\xfe\xff garbage"}));
  ASSERT_TRUE(client.send_line(std::string{"\x00\x7f more", 7}));
  ASSERT_TRUE(client.send_line(verify_line(0)));
  const auto lines = read_responses(client, 1);
  EXPECT_GE(count_prefix(lines, "error unknown command"), 2u);
  EXPECT_EQ(count_prefix(lines, "result"), 1u);
  // And a second connection still works fine afterwards.
  Client other = connect();
  ASSERT_TRUE(other.send_line(verify_line(0)));
  EXPECT_EQ(count_prefix(read_responses(other, 1), "result"), 1u);
}

TEST_F(NetTest, OversizedLineIsRejectedAndInputClosed) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  start(std::move(options));
  Client client = connect();
  ASSERT_TRUE(client.send_line(std::string(4096, 'A')));
  const auto line = client.recv_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("error line too long (limit 1024", 0), 0u) << *line;
  EXPECT_FALSE(client.recv_line().has_value());  // input side closed
}

TEST_F(NetTest, PartialLinesAcrossWritesReassemble) {
  start(ServerOptions{});
  Client client = connect();
  // One complete line plus a partial one in the first write; the rest of
  // the partial line lands 30 ms later.  The server's buffer must
  // reassemble it into one request.
  ASSERT_TRUE(client.send_raw(verify_line(0) + "\nverify sleep:0 0 eq-"));
  std::this_thread::sleep_for(30ms);
  ASSERT_TRUE(client.send_raw("num - sylvester 10\n"));
  const auto lines = read_responses(client, 2);
  EXPECT_EQ(count_prefix(lines, "result"), 2u);
}

TEST_F(NetTest, TcpRoundTripOnEphemeralPort) {
  static std::atomic<int> counter{0};
  ServerOptions options;
  options.unix_path = "/tmp/spiv_net_tcp_" + std::to_string(::getpid()) +
                      "_" + std::to_string(counter.fetch_add(1)) + ".sock";
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;  // ephemeral
  options.service.handler = canned_handler();
  options.service.jobs = 2;
  Server server{std::move(options)};
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  std::thread thread{[&server] { (void)server.run(); }};
  Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.tcp_port()))
      << client.error();
  ASSERT_TRUE(client.send_line(verify_line(0)));
  const auto lines = read_responses(client, 1);
  EXPECT_EQ(count_prefix(lines, "result"), 1u);
  server.request_drain();
  thread.join();
}

// ------------------------------------------------ the real pipeline

TEST_F(NetTest, FifoCaseFileErrorsAtOnceAndTheServerStillDrains) {
  // A FIFO named as a case file used to block its reader in open(2)
  // forever: no answer, and a drain that never finished.
  store::CertStore store{dir() + "/cache"};
  start_real(&store);
  const std::string fifo = dir() + "/case.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  Client client = connect();
  ASSERT_TRUE(client.send_line("verify " + fifo + " 0 eq-num - sylvester 10"));
  auto reply =
      std::async(std::launch::async, [&] { return read_responses(client, 1); });
  const bool answered = reply.wait_for(1s) == std::future_status::ready;
  if (!answered) {
    // Release a reader stuck in open(2), so the test fails instead of
    // hanging: a writer that comes and goes makes the read see EOF.
    const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd >= 0) ::close(fd);
  }
  const auto lines = reply.get();
  EXPECT_TRUE(answered);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("status=error"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("msg=cannot open case file " + fifo),
            std::string::npos)
      << lines[1];
  // `quit` drains the whole server: the connection closes, run() returns.
  ASSERT_TRUE(client.send_line("quit"));
  auto closed =
      std::async(std::launch::async, [&] { return client.recv_line(); });
  ASSERT_EQ(closed.wait_for(2s), std::future_status::ready);
  EXPECT_FALSE(closed.get().has_value());
  thread_.join();
  EXPECT_EQ(run_result_, 1);
}

TEST_F(NetTest, WarmHitOverTheSocketRunsNoPoolJob) {
  store::CertStore store{dir() + "/cache"};
  start_real(&store);
  Client client = connect();
  const std::string cmd = "verify " + size3_tail();
  ASSERT_TRUE(client.send_line(cmd));
  const auto cold = read_responses(client, 1);
  ASSERT_NE(cold.back().find("cache=miss"), std::string::npos) << cold.back();
  server_->engine().wait_idle();

  const std::uint64_t jobs0 = jobs_executed();
  ASSERT_TRUE(client.send_line(cmd));
  const auto warm = read_responses(client, 1);
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_EQ(warm[0], "queued id=2");
  EXPECT_EQ(warm[1].rfind("result id=2 status=valid cache=hit ", 0), 0u)
      << warm[1];
  EXPECT_EQ(jobs_executed(), jobs0);
  EXPECT_EQ(store.stats().memory_hits, 1u);
}

TEST_F(NetTest, WarmBatchEndsWithBatchDoneAndWaitIsIdleAtOnce) {
  store::CertStore store{dir() + "/cache"};
  start_real(&store);
  Client client = connect();
  ASSERT_TRUE(client.send_line("verify " + size3_tail()));
  (void)read_responses(client, 1);
  server_->engine().wait_idle();

  const std::uint64_t jobs0 = jobs_executed();
  ASSERT_TRUE(client.send_raw("batch-verify 3\n" + size3_tail() + "\n" +
                              size3_tail() + "\n" + size3_tail() + "\nwait\n"));
  std::vector<std::string> lines;
  while (lines.empty() || lines.back() != "idle") {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "EOF before idle";
    lines.push_back(*line);
  }
  // Every member is answered in line, in order, so the batch is done and
  // the session idle by the time the `wait` line is parsed.
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "queued ids=2-4 batch=3");
  for (std::size_t i = 1; i <= 3; ++i)
    EXPECT_EQ(lines[i].rfind("result id=" + std::to_string(i + 1) +
                                 " status=valid cache=hit ",
                             0),
              0u)
        << lines[i];
  EXPECT_EQ(lines[4], "batch-done ids=2-4 ok=3 failed=0 shed=0");
  EXPECT_EQ(jobs_executed(), jobs0);
}

TEST_F(NetTest, UnreadPipelinedWarmHitsStayWithinTheOutboxMark) {
  // A client pipelines 10k warm requests and never reads a response.  Warm
  // hits are answered on the event loop, so no pool throttles them: the
  // outbox high-water mark must stop the loop reading that connection.
  // Its backlog then holds at most the mark plus one request's lines, and
  // other connections are still served.
  constexpr std::int64_t kOneRequest = 1024;  // `queued` + `result` lines
  store::CertStore store{dir() + "/cache"};
  start_real(&store);
  const std::string cmd = "verify " + size3_tail();
  Client warmer = connect();
  ASSERT_TRUE(warmer.send_line(cmd));
  (void)read_responses(warmer, 1);
  server_->engine().wait_idle();
  const std::int64_t gauge0 = outbox_bytes();

  std::string error;
  Fd hostile = connect_unix(path_, error);
  ASSERT_TRUE(hostile.valid()) << error;
  ASSERT_TRUE(set_nonblocking(hostile.get()));
  std::string payload;
  for (int i = 0; i < 10000; ++i) payload += cmd + "\n";
  std::size_t sent = 0;
  const auto push = [&] {
    while (sent < payload.size()) {
      const ssize_t n = ::write(hostile.get(), payload.data() + sent,
                                payload.size() - sent);
      if (n <= 0) return;  // EAGAIN: the server is not reading
      sent += static_cast<std::size_t>(n);
    }
  };
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (outbox_bytes() - gauge0 <
             static_cast<std::int64_t>(kOutboxHighWaterBytes) &&
         std::chrono::steady_clock::now() < deadline) {
    push();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(outbox_bytes() - gauge0,
            static_cast<std::int64_t>(kOutboxHighWaterBytes));
  for (int i = 0; i < 20; ++i) {
    push();
    std::this_thread::sleep_for(10ms);
    EXPECT_LE(outbox_bytes() - gauge0,
              static_cast<std::int64_t>(kOutboxHighWaterBytes) + kOneRequest);
  }
  EXPECT_LT(sent, payload.size()) << "the server kept reading";

  // Another connection's warm hit is answered meanwhile.
  Client other = connect();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(other.send_line(cmd));
  const auto lines = read_responses(other, 1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  EXPECT_NE(lines.back().find("cache=hit"), std::string::npos) << lines.back();
  EXPECT_LE(outbox_bytes() - gauge0,
            static_cast<std::int64_t>(kOutboxHighWaterBytes) + kOneRequest);

  // Hanging up releases the backlog.
  hostile.reset();
  const auto released = std::chrono::steady_clock::now() + 5s;
  while (outbox_bytes() != gauge0 &&
         std::chrono::steady_clock::now() < released)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(outbox_bytes(), gauge0);
}

TEST(NetServerTest, StartWithoutListenersThrows) {
  ServerOptions options;  // neither unix path nor tcp port
  Server server{std::move(options)};
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(NetSocketTest, ParsesTcpAddresses) {
  const auto bare = parse_tcp_address("7199");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 7199);
  const auto full = parse_tcp_address("0.0.0.0:80");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "0.0.0.0");
  EXPECT_EQ(full->port, 80);
  EXPECT_FALSE(parse_tcp_address("").has_value());
  EXPECT_FALSE(parse_tcp_address(":80").has_value());
  EXPECT_FALSE(parse_tcp_address("host:").has_value());
  EXPECT_FALSE(parse_tcp_address("host:99999").has_value());
  EXPECT_FALSE(parse_tcp_address("host:12x").has_value());
}

}  // namespace
}  // namespace spiv::net
