#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace spiv::net {

namespace {

/// Poll backstop: the self-pipe is the real wake signal (response ready,
/// request settled, drain requested); the timeout only bounds how long a
/// missed edge could stall — it should never be load-bearing.
constexpr int kPollTimeoutMs = 500;

/// True on the thread inside Server::run().  The loop flushes every outbox
/// at the top of each turn, so its own pushes need no wake-up.
thread_local bool t_loop_thread = false;

/// Thread-safe response queue for one connection.  Pool workers push
/// completed lines from any thread; only the event-loop thread takes.
/// A pool worker's push() wakes the loop through the server's self-pipe so
/// a response is flushed promptly even if the loop is parked in poll().
/// Every queued byte counts in the `spiv_net_outbox_bytes` gauge until the
/// loop writes it to the socket or drops it.
struct Outbox {
  Outbox(int wake_fd, obs::Gauge& gauge) : wake_fd(wake_fd), gauge(gauge) {}
  /// Jobs of a connection already torn down may still push here.
  ~Outbox() { gauge.sub(static_cast<std::int64_t>(pending.size())); }

  void push(const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending += line;
      pending += '\n';
      size.store(pending.size(), std::memory_order_relaxed);
    }
    gauge.add(static_cast<std::int64_t>(line.size() + 1));
    if (!t_loop_thread) wake();
  }

  void wake() const {
    const char byte = 'w';
    // Best effort: a full pipe already guarantees a pending wake-up.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
  }

  [[nodiscard]] std::string take() {
    std::lock_guard<std::mutex> lock(mutex);
    size.store(0, std::memory_order_relaxed);
    return std::exchange(pending, std::string{});
  }

  /// Bytes queued and not yet taken.
  [[nodiscard]] std::size_t bytes() const {
    return size.load(std::memory_order_relaxed);
  }

  std::mutex mutex;
  std::string pending;  ///< concatenated "line\n" bytes, FIFO per connection
  std::atomic<std::size_t> size{0};  ///< pending.size(), readable lock-free
  const int wake_fd;
  obs::Gauge& gauge;
};

/// The one signal-handler hook: SIGTERM/SIGINT handlers may only touch
/// async-signal-safe state, so they go through an atomic Server pointer.
std::atomic<Server*> g_signal_server{nullptr};

extern "C" void spiv_net_drain_signal(int) {
  if (Server* server = g_signal_server.load(std::memory_order_acquire))
    server->request_drain();
}

}  // namespace

/// One accepted connection: the socket, its protocol Session, the input
/// accumulation buffer, and the (partially written) output tail.
struct Server::Conn {
  Fd fd;
  std::shared_ptr<Outbox> outbox;
  std::unique_ptr<service::Session> session;
  std::string inbuf;     ///< bytes read, not yet consumed as lines
  std::string writebuf;  ///< bytes taken from the outbox, not yet written
  bool input_closed = false;  ///< EOF handled / protocol kill / drain
  bool peer_eof = false;      ///< read() saw EOF; buffered lines still run
  bool waiting = false;       ///< `wait` armed: stop reading until idle
  bool dead = false;          ///< socket error: discard without flushing

  /// Responses not yet written to the socket.
  [[nodiscard]] std::size_t backlog() const {
    return writebuf.size() + outbox->bytes();
  }
  /// Whether the next buffered input line may run: not closed, not parked
  /// behind `wait`, and the backlog below the high-water mark.
  [[nodiscard]] bool accepts_lines() const {
    return !input_closed && !waiting && backlog() < kOutboxHighWaterBytes;
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<service::Engine>(options_.service)),
      connections_total_(
          obs::Registry::global().counter("spiv_net_connections_total")),
      shed_connections_total_(
          obs::Registry::global().counter("spiv_net_shed_connections_total")),
      protocol_errors_total_(
          obs::Registry::global().counter("spiv_net_protocol_errors_total")),
      bytes_read_total_(
          obs::Registry::global().counter("spiv_net_bytes_read_total")),
      bytes_written_total_(
          obs::Registry::global().counter("spiv_net_bytes_written_total")),
      open_connections_(
          obs::Registry::global().gauge("spiv_net_open_connections")),
      outbox_bytes_(obs::Registry::global().gauge("spiv_net_outbox_bytes")) {}

Server::~Server() {
  Server* expected = this;
  g_signal_server.compare_exchange_strong(expected, nullptr);
  // Join every in-flight job before the wake pipe closes: completion jobs
  // hold this server's wake fd through their outboxes.
  if (engine_) engine_->wait_idle();
}

void Server::start() {
  if (options_.unix_path.empty() && options_.tcp_port < 0)
    throw std::runtime_error(
        "net::Server: no listener configured (need a unix path or tcp port)");
  // A peer closing mid-write must surface as EPIPE, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
    throw std::runtime_error(std::string{"net::Server: pipe2: "} +
                             std::strerror(errno));
  wake_read_ = Fd{pipefd[0]};
  wake_write_ = Fd{pipefd[1]};
  std::string error;
  if (!options_.unix_path.empty()) {
    unix_listener_ = listen_unix(options_.unix_path, /*backlog=*/128, error);
    if (!unix_listener_.valid())
      throw std::runtime_error("net::Server: " + error);
  }
  if (options_.tcp_port >= 0) {
    tcp_listener_ =
        listen_tcp(options_.tcp_host, options_.tcp_port, /*backlog=*/128,
                   error);
    if (!tcp_listener_.valid())
      throw std::runtime_error("net::Server: " + error);
    tcp_port_ = local_tcp_port(tcp_listener_.get());
  }
}

void Server::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_write_.valid()) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
  }
}

void Server::install_signal_handlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = spiv_net_drain_signal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: the signal must interrupt poll() so the drain flag is
  // seen promptly even if the wake pipe is somehow full.
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Server::drain_wake_pipe() {
  char buf[256];
  while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
  }
}

void Server::kill_protocol(Conn& conn, const std::string& error_line) {
  protocol_errors_total_.add();
  conn.outbox->push(error_line);
  conn.inbuf.clear();
  conn.input_closed = true;
  conn.session->finish_input();
}

void Server::accept_ready(Fd& listener) {
  for (;;) {
    const int cfd = ::accept4(listener.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (queue drained) or a transient accept error
    }
    connections_total_.add();
    if (draining_ || conns_.size() >= options_.max_connections) {
      // Connection-level shed: one cheap line on a fresh socket (its send
      // buffer is empty, so the nonblocking write cannot meaningfully
      // fail) and close.  Never blocks the loop, never aborts the server.
      const std::string line =
          "busy connections=" + std::to_string(conns_.size()) + "\n";
      [[maybe_unused]] const ssize_t n =
          ::write(cfd, line.c_str(), line.size());
      ::close(cfd);
      shed_connections_total_.add();
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd{cfd};
    conn->outbox = std::make_shared<Outbox>(wake_write_.get(), outbox_bytes_);
    // The sink wakes on push (response bytes ready); on_settled wakes
    // after the pending() decrement (teardown/`wait` edges) — both are
    // needed, see service.hpp.
    std::shared_ptr<Outbox> outbox = conn->outbox;
    conn->session = std::make_unique<service::Session>(
        *engine_,
        [outbox](const std::string& line) { outbox->push(line); },
        [outbox] { outbox->wake(); });
    open_connections_.add(1);
    conns_.push_back(std::move(conn));
  }
}

void Server::process_buffer(Conn& conn) {
  std::size_t start = 0;
  while (conn.accepts_lines()) {
    const std::size_t nl = conn.inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn.inbuf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.size() > options_.max_line_bytes) {
      conn.inbuf.erase(0, start);
      kill_protocol(conn, "error line too long (limit " +
                              std::to_string(options_.max_line_bytes) +
                              " bytes)");
      return;
    }
    switch (conn.session->handle_line(line)) {
      case service::Flow::Continue:
        break;
      case service::Flow::Wait:
        conn.waiting = true;
        // pending() may already be 0 (all answered before `wait` parsed).
        if (conn.session->poll_wait()) conn.waiting = false;
        break;
      case service::Flow::Quit:
        conn.inbuf.clear();
        conn.input_closed = true;
        conn.session->finish_input();
        request_drain();
        return;
    }
  }
  if (start > 0) conn.inbuf.erase(0, start);
  if (!conn.accepts_lines()) return;
  // A newline-less prefix longer than the line bound can never become a
  // valid line: reject it now instead of buffering an unbounded flood.
  if (conn.inbuf.size() > options_.max_line_bytes) {
    kill_protocol(conn, "error line too long (limit " +
                            std::to_string(options_.max_line_bytes) +
                            " bytes)");
    return;
  }
  if (conn.peer_eof) {
    // Every buffered line has run.  A trailing unterminated line still
    // counts as input (getline semantics on the stdin transport), then the
    // session learns the input ended so a half-read batch resolves.
    if (!conn.inbuf.empty()) {
      std::string line = std::exchange(conn.inbuf, std::string{});
      if (!line.empty() && line.back() == '\r') line.pop_back();
      (void)conn.session->handle_line(line);
    }
    conn.input_closed = true;
    conn.session->finish_input();
  }
}

void Server::read_ready(Conn& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      bytes_read_total_.add(static_cast<std::uint64_t>(n));
      conn.inbuf.append(buf, static_cast<std::size_t>(n));
      process_buffer(conn);
      if (!conn.accepts_lines()) return;
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      process_buffer(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.dead = true;
    return;
  }
}

void Server::flush_outbox(Conn& conn) {
  if (conn.dead) return;
  conn.writebuf += conn.outbox->take();
  std::size_t written = 0;
  while (written < conn.writebuf.size()) {
    const ssize_t n = ::write(conn.fd.get(), conn.writebuf.data() + written,
                              conn.writebuf.size() - written);
    if (n > 0) {
      bytes_written_total_.add(static_cast<std::uint64_t>(n));
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // EPIPE / ECONNRESET: the peer is gone; nothing left to deliver.
    conn.dead = true;
    written = conn.writebuf.size();
    break;
  }
  conn.writebuf.erase(0, written);
  outbox_bytes_.sub(static_cast<std::int64_t>(written));
}

bool Server::finished(const Conn& conn) const {
  if (conn.dead) return true;
  return conn.input_closed && !conn.waiting && conn.session->pending() == 0 &&
         conn.backlog() == 0;
}

int Server::run() {
  struct LoopThread {
    LoopThread() { t_loop_thread = true; }
    ~LoopThread() { t_loop_thread = false; }
  } loop_thread;
  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      // Stop accepting (close the listeners so new connects fail fast) and
      // stop reading; everything already admitted still completes and
      // every buffered response still flushes — that is the whole point.
      unix_listener_.reset();
      tcp_listener_.reset();
      if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
      for (auto& conn : conns_) {
        if (conn->input_closed) continue;
        conn->inbuf.clear();
        conn->input_closed = true;
        conn->session->finish_input();
      }
    }

    for (auto& conn : conns_) {
      if (conn->waiting && conn->session->poll_wait()) conn->waiting = false;
      flush_outbox(*conn);
      // Lines parked behind a `wait` or the backlog mark (pipelined
      // clients), or an EOF that arrived behind them, run once it clears.
      if (conn->accepts_lines() &&
          (conn->peer_eof || conn->inbuf.find('\n') != std::string::npos)) {
        process_buffer(*conn);
        flush_outbox(*conn);
      }
    }
    for (std::size_t i = 0; i < conns_.size();) {
      if (finished(*conns_[i])) {
        // Safe even with handler jobs still running (a dead connection):
        // jobs reference only the shared outbox and counters, never the
        // Conn or its Session.
        outbox_bytes_.sub(
            static_cast<std::int64_t>(conns_[i]->writebuf.size()));
        open_connections_.sub(1);
        conns_.erase(conns_.begin() +
                     static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (draining_ && conns_.empty()) break;

    fds.clear();
    owners.clear();
    fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
    owners.push_back(nullptr);
    if (!draining_) {
      for (Fd* listener : {&unix_listener_, &tcp_listener_}) {
        if (!listener->valid()) continue;
        fds.push_back(pollfd{listener->get(), POLLIN, 0});
        owners.push_back(nullptr);
      }
    }
    for (auto& conn : conns_) {
      short events = 0;
      if (conn->accepts_lines() && !conn->peer_eof) events |= POLLIN;
      if (!conn->writebuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd.get(), events, 0});
      owners.push_back(conn.get());
    }

    const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal — loop re-checks the flag
      throw std::runtime_error(std::string{"net::Server: poll: "} +
                               std::strerror(errno));
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (!owners[i]) {
        if (fds[i].fd == wake_read_.get()) {
          drain_wake_pipe();
        } else if (unix_listener_.valid() &&
                   fds[i].fd == unix_listener_.get()) {
          accept_ready(unix_listener_);
        } else if (tcp_listener_.valid() &&
                   fds[i].fd == tcp_listener_.get()) {
          accept_ready(tcp_listener_);
        }
        continue;
      }
      Conn& conn = *owners[i];
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        conn.dead = true;
        continue;
      }
      const bool readable = conn.accepts_lines() && !conn.peer_eof;
      if ((fds[i].revents & POLLIN) && readable) read_ready(conn);
      if (fds[i].revents & POLLOUT) flush_outbox(conn);
      if (fds[i].revents & POLLHUP) {
        if (readable) {
          // Readable data rides along with the hang-up: read() drains it
          // and then reports the EOF.
          read_ready(conn);
        } else {
          // The peer closed BOTH directions (a half-close shows up as read
          // EOF, not POLLHUP), so nothing we produce is deliverable — and
          // POLLHUP re-reports every iteration, which would busy-spin the
          // loop for as long as this connection lingered.
          flush_outbox(conn);
          conn.dead = true;
        }
      }
    }
  }
  // All sessions report pending()==0, so this only waits for jobs whose
  // connections died early — their responses have nowhere to go anyway.
  engine_->wait_idle();
  return engine_->errors();
}

}  // namespace spiv::net
