// spiv::service — the `spiv-serve` verification protocol.
//
// One line-oriented request protocol, spoken over two transports that share
// every byte of the implementation:
//
//   * stdin/stdout (`spiv-serve` with no --listen flag): one Session driven
//     by a getline loop — the original batch mode, byte-identical today.
//   * unix-domain / TCP sockets (`spiv-serve --listen PATH`,
//     `--listen-tcp [HOST:]PORT`): many concurrent Sessions multiplexed by
//     the poll(2) event loop in src/net, one Session per connection.
//
// ## Commands
//
//   verify <case-file> <mode> <method> <backend|-> <engine> <digits> [timeout_s]
//       Queue one verification.  Acknowledged immediately with
//       `queued id=N` (ids count from 1 per session), answered
//       asynchronously — possibly out of order with other requests — with
//       exactly one `result` or `busy` line (see below).  A warm hit's
//       `result` follows its `queued` line directly (see "Warm requests").
//
//   batch-verify <count>
//       Pipelined form: exactly <count> follow-up lines, each the argument
//       tail of a `verify` (everything after the word `verify`).  The batch
//       is acknowledged once with `queued ids=<first>-<last> batch=<count>`,
//       each member is answered with its own `result`/`busy` line as it
//       completes (out of order), and when the last member lands the
//       session emits `batch-done ids=<first>-<last> ok=<a> failed=<b>
//       shed=<c>` (ok: valid|invalid — the pipeline ran to a verdict;
//       failed: timeout|synth-failed|error; shed: answered `busy`).
//       If the input ends mid-batch the unread members are reported with
//       one `error batch truncated ...` line and the batch-done line
//       reflects only the members actually received.
//
//   deadline <seconds|off>
//       Per-connection deadline cap, carried into the pipeline's
//       BudgetPolicy: every subsequent verify on this session runs under
//       SharedBudget{min(request timeout, cap)}.  `off` removes the cap.
//       Acknowledged with `ok deadline=<seconds|off>`.
//
//   wait
//       Session barrier: the transport stops consuming this session's
//       input until every request it has queued so far is answered, then
//       emits `idle`.  Other connections keep flowing; on stdin this is
//       the classic whole-pool barrier it has always been.
//
//   stats
//       One line of pool/store counters with the per-tier breakdown:
//       `stats jobs=<n> memory_hits=<a> disk_hits=<b> misses=<c>
//       writes=<d> neg_hits=<e> neg_writes=<f> memory_entries=<g>`
//       (or `stats jobs=<n> store=off` without a store).
//
//   metrics
//       Prometheus text exposition of the global registry, ends `# EOF`.
//
//   quit
//       Graceful drain: stop accepting new work (socket mode: the whole
//       server stops accepting, exactly like SIGTERM), finish every
//       in-flight request, flush all responses, then shut down.
//
// ## Responses
//
//   queued id=N | queued ids=F-L batch=K
//   result id=N status=<valid|invalid|timeout|synth-failed|error>
//     cache=<hit|miss|neg-hit|off> key=<32 hex> model=<name> mode=<m>
//     method=<name> backend=<name|-> engine=<name> digits=<d>
//     synth_seconds=<s> validate_seconds=<s> [msg=<text>]
//     (one physical line; wrapped here for readability.  msg text is
//     sanitized: embedded newlines can never split a protocol line.)
//   busy id=N inflight=<i> queue_depth=<q>
//       Load shed: admission control refused the request without queuing
//       it.  Sheds are cheap by design — no case file is opened, no job is
//       submitted — and never block or abort the connection.
//   batch-done ids=F-L ok=<a> failed=<b> shed=<c>
//   idle | ok deadline=<v> | error <text>
//
// ## Admission control
//
// A session admits a request only while (a) the number of in-flight
// requests across ALL sessions is below `max_inflight` and (b) the job
// pool's queue-depth gauge (`spiv_pool_queue_depth`) is below
// `max_queue_depth`; either bound set to 0 disables that check.  Refused
// requests are answered with a `busy` line and counted in
// `spiv_serve_shed_total`.  Admission is checked on the event-loop thread
// without a lock, so a burst across many connections can overshoot the
// bound by at most the number of transport threads (one today).
//
// ## Budget semantics
//
// The [timeout_s] budget covers the WHOLE request: synthesis consumes from
// the front and validation gets only the remainder, so one request can
// never burn more than its declared timeout (min'ed with the session's
// `deadline` cap when one is set).
//
// ## Warm requests
//
// Warm requests are answered straight from the certificate store
// (cache=hit) without invoking any synthesis kernel; misses are computed
// and inserted.  Each Engine keeps a request-key memo: a case file's full
// bytes (hashed, then compared byte for byte) plus the normalized (mode,
// method, backend, engine, digits) map to the key run_verify derived for
// them, so a repeat request skips the case parse, the close-loop and the
// key formatting and goes straight to verify::lookup_cached.  Only keys the
// full path derived enter the memo; it is cleared past a fixed byte budget;
// a memo hit the store no longer holds runs the full path on the bytes
// already read.  Each memo hit adds one to `spiv_serve_key_memo_hits_total`.
//
// A warm hit is answered in line, on the transport thread that parsed it:
// when the memo knows the key and the store's MEMORY tier holds its record
// (positive, or negative below), the session emits `queued id=N` and then
// the `result` line at once, in request order, and no pool job runs —
// `spiv_pool_jobs_executed_total` and `spiv_pool_queue_depth` do not count
// it.  Everything else goes to the pool: memo misses, records held only on
// disk (the transport thread never does disk-tier I/O), case paths that are
// not regular files, and every request of an Engine with an injected
// Handler.  The case file is read once either way (the pool job takes the
// bytes the transport read), and the response line and every store and
// verify counter read the same as when the pool serves the hit.
//
// With `negative_ttl_seconds` > 0, synth-failed and timeout outcomes are
// remembered in the store's negative tier for the TTL and replayed as
// cache=neg-hit, so repeated hopeless requests stop re-burning the
// synthesis budget (timeout entries only shield requests whose budget is
// <= the budget that timed out).
//
// A case path that is not a regular file (a FIFO, a device, a directory)
// answers `cannot open case file ...` without blocking: it is opened
// non-blocking and refused before any read.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/parallel.hpp"
#include "lyapunov/synthesis.hpp"
#include "obs/metrics.hpp"
#include "sdp/lmi.hpp"
#include "smt/validate.hpp"
#include "store/cert_store.hpp"
#include "verify/verify.hpp"

namespace spiv::service {

/// One parsed `verify` request (public so tests can substitute a Handler
/// that answers without running the pipeline).
struct Request {
  std::size_t id = 0;
  std::string case_file;
  std::size_t mode = 0;
  lyap::Method method = lyap::Method::LmiAlpha;
  std::optional<sdp::Backend> backend;
  smt::Engine engine = smt::Engine::Sylvester;
  int digits = 10;
  double timeout_seconds = 60.0;
};

/// One response: the machine-readable outcome plus the protocol line.
struct Response {
  verify::Status status = verify::Status::Error;
  std::string line;
};

/// Executes one admitted request on a pool worker, in place of the Engine's
/// built-in pipeline (see "Warm requests" above).  Tests inject sleeps or
/// canned outcomes here to make scheduling properties (out-of-order
/// completion, shedding, drain) deterministic.  Every request of an Engine
/// with an injected handler runs on the pool, warm hits included.
using Handler = std::function<Response(
    const Request&, store::CertStore*, double negative_ttl_seconds,
    const CancelToken&)>;

/// The built-in pipeline as a Handler: loads the case file, closes the
/// loop, and runs verify::run_verify (or replays a memoized key into the
/// store).  Each call makes a new request-key memo that the returned
/// Handler owns.  Its responses are byte-identical to the Engine's own.
[[nodiscard]] Handler default_handler();

struct ServeOptions {
  /// Worker threads for the request pool: 0 = $SPIV_JOBS (else
  /// hardware_concurrency).
  std::size_t jobs = 0;
  /// Whole-request (synthesis + validation combined) budget when a request
  /// carries no explicit timeout.
  double default_timeout_seconds = 60.0;
  /// Certificate store; nullptr disables caching (every request computes).
  store::CertStore* store = nullptr;
  /// Admission control: maximum in-flight requests across all sessions
  /// (0 = unbounded, the stdin default).
  std::size_t max_inflight = 0;
  /// Admission control: shed while the pool queue-depth gauge is at or
  /// above this (0 = unbounded).
  std::int64_t max_queue_depth = 0;
  /// TTL for negative certificate-store entries (0 = negative caching off).
  double negative_ttl_seconds = 0.0;
  /// Request executor; empty = the built-in pipeline (which answers warm
  /// hits on the transport thread).
  Handler handler;
};

class KeyMemo;

/// Shared service state behind every session: the job pool, the store, the
/// request-key memo, the admission counters, and the obs instruments.  One
/// Engine serves any number of concurrent Sessions; all of its methods are
/// thread-safe.
class Engine {
 public:
  explicit Engine(const ServeOptions& options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Block until every submitted job has finished.
  void wait_idle() { pool_.wait_idle(); }

  [[nodiscard]] std::size_t thread_count() const {
    return pool_.thread_count();
  }
  [[nodiscard]] const ServeOptions& options() const { return options_; }
  /// Requests that ended in status=error (protocol or pipeline).
  [[nodiscard]] int errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  /// Requests admitted and not yet answered, across all sessions.
  [[nodiscard]] std::int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  friend class Session;

  /// Reserve one in-flight slot; false = shed (answer `busy`).
  [[nodiscard]] bool try_admit();
  void release();
  void count_error() {
    errors_.fetch_add(1, std::memory_order_relaxed);
    errors_total_.add();
  }

  ServeOptions options_;
  /// The built-in pipeline's request-key memo (declared before pool_, so
  /// it outlives every job).
  std::unique_ptr<KeyMemo> memo_;
  core::JobPool pool_;
  std::atomic<int> errors_{0};
  std::atomic<std::int64_t> inflight_{0};
  obs::Counter& requests_total_;
  obs::Counter& errors_total_;
  obs::Counter& shed_total_;
  obs::Counter& batches_total_;
  obs::Gauge& inflight_gauge_;
  obs::Gauge& queue_depth_gauge_;     ///< the pool's global depth gauge
  obs::Histogram& request_seconds_;   ///< queued -> response written (SLO)
};

/// Thread-safe whole-line sink: the transport appends line + "\n" to its
/// output (a mutexed ostream for stdin, a connection outbox for sockets).
/// Completion jobs call it from pool threads; it must tolerate that.
using LineSink = std::function<void(const std::string&)>;

/// What the transport should do after feeding a line.
enum class Flow {
  Continue,  ///< keep feeding input
  Wait,      ///< stop feeding THIS session until poll_wait() returns true
  Quit,      ///< session asked the service to drain
};

/// One protocol session (one connection, or the stdin stream).  handle_line
/// is single-threaded per session (the transport's read loop); responses
/// may be emitted concurrently from pool workers via the LineSink.
class Session {
 public:
  /// `on_settled` (optional) runs on the pool thread after a completion has
  /// both reached the sink AND decremented pending() — the transport's
  /// wake-up hook, so an event loop never misses the pending()==0 edge it
  /// gates `wait` and connection teardown on.
  Session(Engine& engine, LineSink sink,
          std::function<void()> on_settled = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feed one input line (without its terminator).
  [[nodiscard]] Flow handle_line(const std::string& line);

  /// `wait` support: true (and emits `idle`) once every request this
  /// session queued has been answered.  Call when in-flight work drains.
  [[nodiscard]] bool poll_wait();

  /// Input ended (EOF / connection reset).  Resolves a half-read batch so
  /// its batch-done line is still emitted for the members that did arrive.
  void finish_input();

  /// Requests admitted by this session and not yet answered.  The decrement
  /// happens after the response line reaches the sink, so pending() == 0
  /// means every response has been handed to the transport.
  [[nodiscard]] std::size_t pending() const {
    return pending_->load(std::memory_order_acquire);
  }

 private:
  struct Batch;

  Flow handle_command(const std::string& line);
  void handle_verify_args(std::istringstream& is,
                          const std::shared_ptr<Batch>& batch);
  void emit(const std::string& line) { sink_(line); }
  /// Record a synchronously-resolved batch member (parse error / shed).
  static void resolve_batch_member(const std::shared_ptr<Batch>& batch,
                                   verify::Status status, bool shed);

  Engine& engine_;
  LineSink sink_;
  std::function<void()> on_settled_;
  std::size_t next_id_ = 1;
  double deadline_cap_ = 0.0;  ///< 0 = no per-session cap
  bool wait_armed_ = false;
  std::shared_ptr<Batch> open_batch_;   ///< non-null while reading members
  std::size_t batch_to_read_ = 0;       ///< members still expected
  std::shared_ptr<std::atomic<std::size_t>> pending_;
};

/// Run the protocol on an istream/ostream pair until EOF or `quit`;
/// returns the number of requests that ended in status=error (0 = clean).
/// This is the stdin transport: a thin getline adapter over one Session.
int serve(std::istream& in, std::ostream& out, const ServeOptions& options);

}  // namespace spiv::service
