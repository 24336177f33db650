// spiv::net::Server — the socket transport for the spiv-serve protocol.
//
// One poll(2) event loop multiplexes every connection (unix-domain and TCP)
// onto the shared service::Engine: the loop thread parses input lines and
// feeds them to each connection's service::Session; completions arrive
// out of order from pool workers into a per-connection Outbox, wake the
// loop through a self-pipe, and are flushed in arrival order per
// connection.  Lines the loop thread emits itself (acks, warm hits
// answered in line) skip the self-pipe: the loop flushes every outbox at
// the top of each turn.  The protocol itself — batching, admission
// control, per-session deadlines — lives entirely in src/service; this
// layer only moves bytes and owns connection lifecycle:
//
//   * accept until `max_connections`, then answer one `busy connections=N`
//     line and close (connection-level shedding, counted in
//     spiv_net_shed_connections_total — distinct from request-level `busy`
//     sheds, which keep the connection).
//   * `wait` pauses reading ONLY that connection until its requests drain;
//     other connections keep flowing.
//   * backpressure: while a connection's unsent responses (its outbox plus
//     its partly written tail) reach kOutboxHighWaterBytes, its input is
//     not read and its buffered lines are not run, so a client that
//     pipelines and never reads holds at most the mark plus one request's
//     lines; reading resumes once the backlog drains below the mark.  The
//     `spiv_net_outbox_bytes` gauge sums every connection's backlog.
//   * graceful drain (SIGTERM / SIGINT / any session's `quit` /
//     request_drain()): stop accepting, stop reading, finish every
//     in-flight request, flush every outbox byte, then run() returns.
//     No in-flight response is ever dropped.
//   * an input line longer than `max_line_bytes` is a protocol violation:
//     the connection gets one `error line too long ...` response and its
//     input side is closed (pending responses still flush).
//
// run() is single-threaded; Server is not reentrant.  request_drain() is
// async-signal-safe and may be called from any thread or signal handler.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "service/service.hpp"

namespace spiv::net {

/// Per-connection backlog (unsent response bytes) at which the server stops
/// reading that connection's input until the client catches up.
inline constexpr std::size_t kOutboxHighWaterBytes = std::size_t{256} << 10;

struct ServerOptions {
  /// Unix-domain listener path; empty = no unix listener.
  std::string unix_path;
  /// TCP listener; port < 0 = no TCP listener, port 0 = kernel-chosen
  /// ephemeral port (read it back with Server::tcp_port()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// The shared protocol engine configuration (pool size, store, admission
  /// bounds, negative-cache TTL, handler hook).
  service::ServeOptions service;
  /// Accepted connections beyond this are shed with `busy connections=N`.
  std::size_t max_connections = 256;
  /// Longest accepted input line (protocol robustness bound).
  std::size_t max_line_bytes = 1 << 16;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the configured listeners.  Throws std::runtime_error with the
  /// socket-layer message on failure; at least one listener is required.
  void start();

  /// Port the TCP listener actually bound (after start()); -1 without one.
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

  /// Run the event loop until a drain completes.  Returns the engine's
  /// error count (requests that ended status=error), like service::serve.
  int run();

  /// Begin graceful drain.  Async-signal-safe; idempotent.
  void request_drain() noexcept;

  /// Route SIGTERM and SIGINT to request_drain() of this server (process
  /// wide — at most one Server may install handlers at a time).
  void install_signal_handlers();

  [[nodiscard]] service::Engine& engine() { return *engine_; }

 private:
  struct Conn;

  void accept_ready(Fd& listener);
  void read_ready(Conn& conn);
  void process_buffer(Conn& conn);
  void flush_outbox(Conn& conn);
  void kill_protocol(Conn& conn, const std::string& error_line);
  [[nodiscard]] bool finished(const Conn& conn) const;
  void drain_wake_pipe();

  ServerOptions options_;
  std::unique_ptr<service::Engine> engine_;
  Fd unix_listener_;
  Fd tcp_listener_;
  int tcp_port_ = -1;
  Fd wake_read_;
  Fd wake_write_;
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  std::vector<std::unique_ptr<Conn>> conns_;

  obs::Counter& connections_total_;
  obs::Counter& shed_connections_total_;
  obs::Counter& protocol_errors_total_;
  obs::Counter& bytes_read_total_;
  obs::Counter& bytes_written_total_;
  obs::Gauge& open_connections_;
  obs::Gauge& outbox_bytes_;  ///< unsent response bytes, all connections
};

}  // namespace spiv::net
