#include "service/service.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/serialize.hpp"
#include "model/switched_pi.hpp"
#include "numeric/text.hpp"
#include "obs/span.hpp"

namespace spiv::service {

namespace {

using Status = verify::Status;

/// Serializes whole lines onto the response stream.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& out) : out_(out) {}
  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line << "\n" << std::flush;
  }

 private:
  std::ostream& out_;
  std::mutex mutex_;
};

std::string result_prefix(const Request& req) {
  return "result id=" + std::to_string(req.id);
}

void append_request_fields(std::string& line, const Request& req,
                           const std::string& key,
                           const std::string& model_name) {
  line += " key=";
  line += key.empty() ? "-" : key;
  line += " model=";
  line += model_name.empty() ? "-" : model_name;
  line += " mode=";
  line += std::to_string(req.mode);
  line += " method=";
  line += lyap::to_string(req.method);
  line += " backend=";
  line += req.backend ? sdp::to_string(*req.backend) : "-";
  line += " engine=";
  line += smt::to_string(req.engine);
  line += " digits=";
  line += std::to_string(req.digits);
}

/// Collapse embedded line breaks (and other control bytes) so a message —
/// e.g. an exception's what() — can never split a protocol line, and trim
/// the trailing whitespace that multi-line messages leave behind.
std::string sanitize_message(const std::string& msg) {
  std::string out = msg;
  for (char& c : out)
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

Response error_outcome(const Request& req, const std::string& msg) {
  std::string line = result_prefix(req) + " status=error cache=off";
  append_request_fields(line, req, "", "");
  line += " msg=";
  line += sanitize_message(msg);
  return {Status::Error, std::move(line)};
}

void append_seconds(std::string& line, const char* name, double s) {
  line += ' ';
  line += name;
  line += '=';
  numeric::text::append_double(line, s);
}

/// The whole regular file at `path` in `out`, read once with
/// open/fstat/read (no stream, one buffer sized from fstat).  The open
/// never blocks and anything but a regular file is refused before any
/// read, so a FIFO, a device or a directory named as a case file is an
/// error instead of a stalled worker or event loop.  One byte of slack
/// lets the read that returns 0 prove EOF; a file that grew since fstat
/// keeps the buffer growing.
bool read_file(const std::string& path, std::string& out) {
  struct File {
    int fd;
    ~File() {
      if (fd >= 0) ::close(fd);
    }
  } file{::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_NOCTTY | O_CLOEXEC)};
  if (file.fd < 0) return false;
  struct stat st {};
  if (::fstat(file.fd, &st) != 0 || !S_ISREG(st.st_mode)) return false;
  const std::size_t size =
      st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0;
  out.resize(size + 1);
  std::size_t len = 0;
  for (;;) {
    if (len == out.size()) out.resize(2 * out.size());
    const ssize_t n = ::read(file.fd, out.data() + len, out.size() - len);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    len += static_cast<std::size_t>(n);
  }
  out.resize(len);
  return true;
}

}  // namespace

/// Content-addressed memo of the request keys run_verify derived, one per
/// Engine (and one per default_handler()).  Each distinct case file's bytes
/// are stored once, with the model name and one key per normalized request
/// tuple seen for them.  A probe hashes the bytes but trusts only full byte
/// equality, so two files never share an entry.  Only keys run_verify
/// derived enter (parse errors and out-of-range modes never do), and the
/// whole memo is cleared when it outgrows kBudgetBytes.  The service's
/// synthesis options are always the defaults, so the tuple below and the
/// bytes determine the key.
class KeyMemo {
 public:
  /// spiv_serve_key_memo_hits_total: one per find() that knew the key.
  obs::Counter& hits =
      obs::Registry::global().counter("spiv_serve_key_memo_hits_total");

  /// The request fields that, with the case bytes, determine the key
  /// (Request::backend is already normalized by parse_verify).
  struct Tuple {
    std::size_t mode;
    lyap::Method method;
    std::optional<sdp::Backend> backend;
    smt::Engine engine;
    int digits;

    bool operator==(const Tuple&) const = default;
  };
  struct Known {
    std::string model;
    std::string key;
  };

  /// The key remembered for these bytes and this tuple (a hit counts one).
  [[nodiscard]] std::optional<Known> find(const std::string& bytes,
                                          const Tuple& tuple) {
    const std::size_t hash = std::hash<std::string>{}(bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry* entry = locate(hash, bytes);
    if (!entry) return std::nullopt;
    for (const auto& [t, key] : entry->keys)
      if (t == tuple) {
        hits.add();
        return Known{entry->model, key};
      }
    return std::nullopt;
  }

  void remember(std::string bytes, const std::string& model,
                const Tuple& tuple, const std::string& key) {
    const std::size_t hash = std::hash<std::string>{}(bytes);
    const std::size_t entry_cost = kEntryCost + bytes.size() + model.size();
    if (entry_cost + kKeyCost > kBudgetBytes) return;
    std::lock_guard<std::mutex> lock(mutex_);
    Entry* entry = locate(hash, bytes);
    if (entry)
      for (const auto& known : entry->keys)
        if (known.first == tuple) return;
    std::size_t cost = kKeyCost + (entry ? 0 : entry_cost);
    if (bytes_ + cost > kBudgetBytes) {
      entries_.clear();
      bytes_ = 0;
      entry = nullptr;
      cost = kKeyCost + entry_cost;
    }
    if (!entry)
      entry = &entries_.emplace(hash, Entry{std::move(bytes), model, {}})
                   ->second;
    entry->keys.emplace_back(tuple, key);
    bytes_ += cost;
  }

 private:
  struct Entry {
    std::string bytes;
    std::string model;
    std::vector<std::pair<Tuple, std::string>> keys;
  };
  static constexpr std::size_t kBudgetBytes = std::size_t{8} << 20;
  /// Rough heap bytes of one key / one entry beyond its case bytes.
  static constexpr std::size_t kKeyCost = sizeof(Tuple) + 64;
  static constexpr std::size_t kEntryCost = sizeof(Entry) + 64;

  Entry* locate(std::size_t hash, const std::string& bytes) {
    const auto [first, last] = entries_.equal_range(hash);
    for (auto it = first; it != last; ++it)
      if (it->second.bytes == bytes) return &it->second;
    return nullptr;
  }

  std::mutex mutex_;
  std::unordered_multimap<std::size_t, Entry> entries_;
  std::size_t bytes_ = 0;
};

/// What the event loop learned about a request it could not answer, handed
/// to the pool job so the case file is read once.
struct CaseProbe {
  bool read = false;  ///< `text` holds the file's bytes (a regular file)
  std::string text;
  std::optional<KeyMemo::Known> known;  ///< the memo knew the key
};

namespace {

/// Parse the case bytes into `bm`; an error message, or empty on success.
std::string parse_case(const std::string& text, model::BenchmarkModel& bm) {
  try {
    bm = model::case_from_string(text);
  } catch (const std::exception& e) {
    return std::string{"case parse failed: "} + e.what();
  }
  return "";
}

/// The protocol line for a pipeline outcome on `model_name`.
Response render(const Request& req, const verify::VerifyOutcome& outcome,
                const std::string& model_name) {
  if (outcome.status == Status::Error)
    return error_outcome(req, outcome.message);
  std::string line = result_prefix(req);
  line += " status=";
  line += verify::to_string(outcome.status);
  line += " cache=";
  line += verify::to_string(outcome.cache);
  append_request_fields(line, req, outcome.key, model_name);
  // Timing fields exist exactly when a candidate does: synthesis timeouts
  // and failures have nothing to report.
  if (outcome.synthesized()) {
    append_seconds(line, "synth_seconds", outcome.synth_seconds);
    append_seconds(line, "validate_seconds", outcome.validate_seconds);
  }
  return {outcome.status, std::move(line)};
}

obs::Histogram& case_load_seconds() {
  static obs::Histogram& histogram = obs::stage_histogram("case-load");
  return histogram;
}

KeyMemo::Tuple tuple_of(const Request& req) {
  return {req.mode, req.method, req.backend, req.engine, req.digits};
}

verify::VerifyContext context_for(store::CertStore* store,
                                  double negative_ttl_seconds,
                                  const CancelToken* token) {
  verify::VerifyContext ctx;
  ctx.store = store;
  ctx.token = token;
  ctx.negative_ttl_seconds = negative_ttl_seconds;
  return ctx;
}

/// The event-loop half of a warm request: read the case file (a regular
/// file only) and probe the memo, then the store's memory tiers.  Returns
/// the response when both know the request; otherwise nullopt, with what
/// was learned in `probe`.  Only a memo hit records `case-load` (read and
/// probe); the store's memory-only miss counts and times nothing, so the
/// pool job that takes over counts the request exactly once.
std::optional<Response> answer_warm(const Request& req, store::CertStore& store,
                                    double negative_ttl_seconds, KeyMemo& memo,
                                    CaseProbe& probe) {
  {
    obs::Span span{case_load_seconds(), "case-load", req.case_file};
    probe.read = read_file(req.case_file, probe.text);
    if (probe.read) probe.known = memo.find(probe.text, tuple_of(req));
    if (!probe.known) {
      span.dismiss();  // the pool job times its own case load
      return std::nullopt;
    }
  }
  const auto out = verify::lookup_cached(
      context_for(&store, negative_ttl_seconds, nullptr), probe.known->key,
      req.timeout_seconds, verify::Tiers::MemoryOnly);
  if (!out) return std::nullopt;
  return render(req, *out, probe.known->model);
}

/// The per-request adapter on a pool worker: read the case file (unless
/// `probe` carries the bytes the event loop read), and either replay the
/// key the memo holds for these bytes and this request into the store, or
/// parse the case, close the loop, and hand the matrix to the verify
/// pipeline (which owns deadlines, cache keys, store access, and outcome
/// classification).  Renders one protocol line.
Response handle_verify(const Request& req, store::CertStore* store,
                       double negative_ttl_seconds, const CancelToken& token,
                       KeyMemo& memo, CaseProbe probe) {
  const verify::VerifyContext ctx =
      context_for(store, negative_ttl_seconds, &token);
  // Service semantics: one budget shared by both stages — synthesis
  // consumes from the front and validation gets only the remainder, so a
  // request can never burn more than its declared timeout.
  const verify::BudgetPolicy budget = verify::SharedBudget{req.timeout_seconds};
  const KeyMemo::Tuple tuple = tuple_of(req);

  // One read: the bytes probed in the memo are the bytes parsed on a miss,
  // so a concurrent rewrite of the file never pairs old bytes with a new
  // key.  Without a store every request computes, so the memo sits idle.
  std::string text = std::move(probe.text);
  std::optional<KeyMemo::Known> known = std::move(probe.known);
  model::BenchmarkModel bm;
  if (!known) {
    obs::Span span{case_load_seconds(), "case-load", req.case_file};
    if (!probe.read) {
      if (!read_file(req.case_file, text))
        return error_outcome(req, "cannot open case file " + req.case_file);
      if (store) known = memo.find(text, tuple);
    }
    if (!known) {
      const std::string error = parse_case(text, bm);
      if (!error.empty()) return error_outcome(req, error);
    }
  }
  if (known) {
    if (auto out =
            verify::lookup_cached(ctx, known->key, verify::total_seconds(budget)))
      return render(req, *out, known->model);
    // The store no longer holds the key (evicted, or a fresh store): run
    // the full path on the bytes in hand.  Its own lookup misses once more,
    // so the store counts two misses for this rare request.
    const std::string error = parse_case(text, bm);
    if (!error.empty()) return error_outcome(req, error);
  }
  if (req.mode >= bm.controller.num_modes())
    return error_outcome(req, "mode " + std::to_string(req.mode) +
                                  " out of range (case has " +
                                  std::to_string(bm.controller.num_modes()) +
                                  " modes)");

  verify::VerifyRequest vreq;
  {
    obs::Span span{"close-loop", bm.name};
    vreq.a =
        model::close_loop_single_mode(bm.plant, bm.controller.gains[req.mode])
            .a;
  }
  vreq.method = req.method;
  vreq.backend = req.backend;
  vreq.engine = req.engine;
  vreq.digits = req.digits;
  vreq.budget = budget;
  const verify::VerifyOutcome outcome = verify::run_verify(ctx, vreq);
  Response response = render(req, outcome, bm.name);
  if (store) memo.remember(std::move(text), bm.name, tuple, outcome.key);
  return response;
}

/// Parse one `verify` line (after the command token).  Returns an error
/// message, or empty on success.
std::string parse_verify(std::istringstream& is, Request& req) {
  std::string method, backend, engine;
  if (!(is >> req.case_file >> req.mode >> method >> backend >> engine >>
        req.digits))
    return "usage: verify <case-file> <mode> <method> <backend|-> <engine> "
           "<digits> [timeout_s]";
  const auto m = lyap::method_from_string(method);
  if (!m) return "unknown method '" + method + "'";
  req.method = *m;
  if (backend == "-") {
    // LMI methods always run with *some* backend; pin the default one so
    // `LMIa -` and `LMIa newton-ac` share one certificate.
    req.backend = lyap::is_lmi_method(req.method)
                      ? std::optional<sdp::Backend>{
                            sdp::Backend::NewtonAnalyticCenter}
                      : std::nullopt;
  } else {
    const auto b = sdp::backend_from_string(backend);
    if (!b) return "unknown backend '" + backend + "'";
    req.backend = lyap::is_lmi_method(req.method)
                      ? std::optional<sdp::Backend>{*b}
                      : std::nullopt;
  }
  const auto e = smt::engine_from_string(engine);
  if (!e) return "unknown engine '" + engine + "'";
  req.engine = *e;
  if (req.digits < 0) return "digits must be >= 0";
  double timeout = 0.0;
  if (is >> timeout) {
    if (!(timeout > 0.0)) return "timeout must be positive";
    req.timeout_seconds = timeout;
  }
  return "";
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Handler default_handler() {
  auto memo = std::make_shared<KeyMemo>();
  return [memo](const Request& req, store::CertStore* store,
                double negative_ttl_seconds, const CancelToken& token) {
    return handle_verify(req, store, negative_ttl_seconds, token, *memo, {});
  };
}

// ------------------------------------------------------------------ Engine

Engine::Engine(const ServeOptions& options)
    : options_(options),
      memo_(std::make_unique<KeyMemo>()),
      pool_(core::resolve_jobs(options.jobs)),
      requests_total_(
          obs::Registry::global().counter("spiv_serve_requests_total")),
      errors_total_(obs::Registry::global().counter("spiv_serve_errors_total")),
      shed_total_(obs::Registry::global().counter("spiv_serve_shed_total")),
      batches_total_(
          obs::Registry::global().counter("spiv_serve_batches_total")),
      inflight_gauge_(obs::Registry::global().gauge("spiv_serve_inflight")),
      queue_depth_gauge_(
          obs::Registry::global().gauge("spiv_pool_queue_depth")),
      request_seconds_(
          obs::Registry::global().histogram("spiv_serve_request_seconds")) {
  // Pre-register the stage histograms the `metrics` command promises, so a
  // scrape before the first request still sees the full family set.
  for (const char* stage : {"case-load", "close-loop", "synthesis",
                            "validation", "store-lookup", "store-insert"})
    (void)obs::stage_histogram(stage);
}

Engine::~Engine() = default;

bool Engine::try_admit() {
  // Checked from the transport thread without a lock: a burst across many
  // sessions can overshoot each bound by at most the number of transport
  // threads (one today) — the bound is a shed threshold, not a hard cap.
  if (options_.max_inflight != 0 &&
      inflight_.load(std::memory_order_relaxed) >=
          static_cast<std::int64_t>(options_.max_inflight))
    return false;
  if (options_.max_queue_depth != 0 &&
      queue_depth_gauge_.value() >= options_.max_queue_depth)
    return false;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  inflight_gauge_.add(1);
  return true;
}

void Engine::release() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  inflight_gauge_.sub(1);
}

// ----------------------------------------------------------------- Session

/// Completion bookkeeping for one batch-verify: members resolve from pool
/// threads in any order; the last one emits the batch-done line.
struct Session::Batch {
  std::size_t first = 0;
  std::size_t last = 0;
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> shed{0};
  LineSink sink;
};

Session::Session(Engine& engine, LineSink sink,
                 std::function<void()> on_settled)
    : engine_(engine),
      sink_(std::move(sink)),
      on_settled_(std::move(on_settled)),
      pending_(std::make_shared<std::atomic<std::size_t>>(0)) {}

void Session::resolve_batch_member(const std::shared_ptr<Batch>& batch,
                                   Status status, bool shed) {
  if (!batch) return;
  if (shed)
    batch->shed.fetch_add(1, std::memory_order_relaxed);
  else if (status == Status::Valid || status == Status::Invalid)
    batch->ok.fetch_add(1, std::memory_order_relaxed);
  else
    batch->failed.fetch_add(1, std::memory_order_relaxed);
  if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::ostringstream os;
    os << "batch-done ids=" << batch->first << "-" << batch->last
       << " ok=" << batch->ok.load(std::memory_order_relaxed)
       << " failed=" << batch->failed.load(std::memory_order_relaxed)
       << " shed=" << batch->shed.load(std::memory_order_relaxed);
    batch->sink(os.str());
  }
}

void Session::handle_verify_args(std::istringstream& is,
                                 const std::shared_ptr<Batch>& batch) {
  Request req;
  req.id = next_id_++;
  req.timeout_seconds = engine_.options_.default_timeout_seconds;
  const std::string parse_error = parse_verify(is, req);
  if (!parse_error.empty()) {
    emit(error_outcome(req, parse_error).line);
    engine_.count_error();
    resolve_batch_member(batch, Status::Error, /*shed=*/false);
    return;
  }
  // The session's `deadline` cap rides into the pipeline's BudgetPolicy:
  // the effective SharedBudget is the smaller of the request's own timeout
  // and the per-connection cap.
  if (deadline_cap_ > 0.0 && req.timeout_seconds > deadline_cap_)
    req.timeout_seconds = deadline_cap_;
  if (!engine_.try_admit()) {
    std::ostringstream os;
    os << "busy id=" << req.id << " inflight=" << engine_.inflight()
       << " queue_depth=" << engine_.queue_depth_gauge_.value();
    emit(os.str());
    engine_.shed_total_.add();
    resolve_batch_member(batch, Status::Error, /*shed=*/true);
    return;
  }
  engine_.requests_total_.add();
  if (!batch) emit("queued id=" + std::to_string(req.id));
  const auto t0 = std::chrono::steady_clock::now();
  store::CertStore* store = engine_.options_.store;
  const double ttl = engine_.options_.negative_ttl_seconds;
  // A warm hit is answered right here, on the transport thread: no pool
  // job, no thread hop.  An injected handler always runs on the pool.
  CaseProbe probe;
  if (!engine_.options_.handler && store) {
    std::optional<Response> response;
    try {
      response = answer_warm(req, *store, ttl, *engine_.memo_, probe);
    } catch (const std::exception&) {
      probe = {};  // e.g. a file too big to buffer: the job reports it
    }
    if (response) {
      engine_.request_seconds_.observe(since(t0));
      emit(response->line);
      resolve_batch_member(batch, response->status, /*shed=*/false);
      engine_.release();
      return;
    }
  }
  pending_->fetch_add(1, std::memory_order_release);
  // The job captures everything it touches by value (shared_ptrs for the
  // batch and pending counter): the Session may be destroyed while jobs
  // are in flight, the Engine may not (transports wait_idle before that).
  Engine* engine = &engine_;
  LineSink sink = sink_;
  auto pending = pending_;
  auto settled = on_settled_;
  engine_.pool_.submit([req, engine, store, ttl, sink, pending, batch, settled,
                        t0, probe = std::move(probe)]() mutable {
    Response response;
    try {
      const CancelToken& token = engine->pool_.token();
      response = engine->options_.handler
                     ? engine->options_.handler(req, store, ttl, token)
                     : handle_verify(req, store, ttl, token, *engine->memo_,
                                     std::move(probe));
    } catch (const std::exception& e) {
      response = error_outcome(req, std::string{"handler failed: "} + e.what());
    }
    if (response.status == Status::Error) engine->count_error();
    engine->request_seconds_.observe(since(t0));
    // Response before bookkeeping: pending() == 0 implies every response
    // line has reached the transport (the drain invariant).
    sink(response.line);
    resolve_batch_member(batch, response.status, /*shed=*/false);
    engine->release();
    pending->fetch_sub(1, std::memory_order_release);
    // After the decrement, so an event loop woken here observes the new
    // pending() — the sink's own wake can fire before the decrement and
    // would otherwise be the only (racy) signal.
    if (settled) settled();
  });
}

Flow Session::handle_command(const std::string& line) {
  std::istringstream is{line};
  std::string command;
  if (!(is >> command) || command[0] == '#') return Flow::Continue;
  if (command == "quit") return Flow::Quit;
  if (command == "wait") {
    if (pending() == 0) {
      emit("idle");
      return Flow::Continue;
    }
    wait_armed_ = true;
    return Flow::Wait;
  }
  if (command == "metrics") {
    // Multi-line Prometheus text exposition, written as one atomic block
    // and terminated by `# EOF` so clients know where the scrape ends.
    emit(obs::Registry::global().expose());
    return Flow::Continue;
  }
  if (command == "stats") {
    std::ostringstream os;
    os << "stats jobs=" << engine_.thread_count();
    if (engine_.options_.store) {
      const store::StoreStats s = engine_.options_.store->stats();
      os << " memory_hits=" << s.memory_hits << " disk_hits=" << s.disk_hits
         << " misses=" << s.misses << " writes=" << s.writes
         << " neg_hits=" << s.negative_hits
         << " neg_writes=" << s.negative_writes
         << " memory_entries=" << s.memory_entries;
    } else {
      os << " store=off";
    }
    emit(os.str());
    return Flow::Continue;
  }
  if (command == "deadline") {
    std::string value;
    if (is >> value) {
      if (value == "off") {
        deadline_cap_ = 0.0;
        emit("ok deadline=off");
        return Flow::Continue;
      }
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (end != value.c_str() && *end == '\0' && seconds > 0.0) {
        deadline_cap_ = seconds;
        emit("ok deadline=" + value);
        return Flow::Continue;
      }
    }
    emit("error deadline requires a positive number of seconds or 'off'");
    engine_.count_error();
    return Flow::Continue;
  }
  if (command == "batch-verify") {
    std::size_t count = 0;
    if (!(is >> count) || count == 0 || count > 4096) {
      emit("error batch-verify requires a member count between 1 and 4096");
      engine_.count_error();
      return Flow::Continue;
    }
    auto batch = std::make_shared<Batch>();
    batch->first = next_id_;
    batch->last = next_id_ + count - 1;
    batch->remaining.store(count, std::memory_order_relaxed);
    batch->sink = sink_;
    open_batch_ = batch;
    batch_to_read_ = count;
    engine_.batches_total_.add();
    std::ostringstream os;
    os << "queued ids=" << batch->first << "-" << batch->last
       << " batch=" << count;
    emit(os.str());
    return Flow::Continue;
  }
  if (command != "verify") {
    emit("error unknown command '" + command + "'");
    engine_.count_error();
    return Flow::Continue;
  }
  handle_verify_args(is, nullptr);
  return Flow::Continue;
}

Flow Session::handle_line(const std::string& line) {
  if (batch_to_read_ > 0) {
    std::istringstream is{line};
    handle_verify_args(is, open_batch_);
    if (--batch_to_read_ == 0) open_batch_.reset();
    return Flow::Continue;
  }
  return handle_command(line);
}

bool Session::poll_wait() {
  if (!wait_armed_) return true;
  if (pending() != 0) return false;
  wait_armed_ = false;
  emit("idle");
  return true;
}

void Session::finish_input() {
  if (!open_batch_ || batch_to_read_ == 0) return;
  std::ostringstream os;
  os << "error batch truncated (" << batch_to_read_
     << " member(s) never arrived)";
  emit(os.str());
  engine_.count_error();
  // Retire the unread members without classifying them, so the members
  // that DID arrive still produce a batch-done line when they land.
  auto batch = open_batch_;
  open_batch_.reset();
  const std::size_t unread = batch_to_read_;
  batch_to_read_ = 0;
  if (batch->remaining.fetch_sub(unread, std::memory_order_acq_rel) ==
      unread) {
    std::ostringstream done;
    done << "batch-done ids=" << batch->first << "-" << batch->last
         << " ok=" << batch->ok.load(std::memory_order_relaxed)
         << " failed=" << batch->failed.load(std::memory_order_relaxed)
         << " shed=" << batch->shed.load(std::memory_order_relaxed);
    batch->sink(done.str());
  }
}

// ---------------------------------------------------------- stdin transport

int serve(std::istream& in, std::ostream& out, const ServeOptions& options) {
  LineWriter writer{out};
  Engine engine{options};
  // serve() waits for the pool before returning, so capturing the local
  // writer by reference is safe — no job outlives this frame.
  Session session{engine, [&writer](const std::string& line) {
                    writer.write(line);
                  }};
  std::string line;
  while (std::getline(in, line)) {
    const Flow flow = session.handle_line(line);
    if (flow == Flow::Quit) break;
    if (flow == Flow::Wait) {
      // stdin keeps the classic semantics: `wait` is a whole-pool barrier
      // and input is not consumed until the pool is idle.
      engine.wait_idle();
      (void)session.poll_wait();
    }
  }
  session.finish_input();
  engine.wait_idle();
  return engine.errors();
}

}  // namespace spiv::service
