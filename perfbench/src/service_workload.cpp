// warm-hits and cold-fill: spiv-serve on a unix socket, driven closed-loop
// by the benchmark's own client; the traced run replays the same request
// stream in-process through the public layer calls.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/parallel.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/reduction.hpp"
#include "model/serialize.hpp"
#include "model/switched_pi.hpp"
#include "obs/metrics.hpp"
#include "service_load.hpp"
#include "smt/validate.hpp"
#include "store/cert_key.hpp"
#include "store/cert_store.hpp"
#include "verify/verify.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace spivbench {

namespace {

constexpr double kRequestTimeout = 120.0;   ///< per-request budget (s)
constexpr std::size_t kReplayPerConnection = 2500;
constexpr std::size_t kColdSetups = 25;

void export_cases(const std::string& dir) {
  fs::create_directories(dir);
  for (const auto& bm : spiv::model::benchmark_family()) {
    if (bm.integer_rounded) continue;
    std::ofstream out{dir + "/" + bm.name + ".spivcase"};
    spiv::model::write_case(out, bm);
  }
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

/// Verdicts of a load phase against the reference; returns wrong count.
/// Every `result` line is checked, failed ones (timeout, error) included.
std::size_t check_samples(const std::vector<Sample>& samples,
                          const std::vector<ServiceRequest>& reqs,
                          const Reference& ref, std::size_t& key_changes) {
  std::size_t wrong = 0;
  for (const Sample& s : samples) {
    if (s.status.empty()) continue;  // no `result` line: counted as failed
    const std::string id = reqs[s.request].id();
    const auto status = ref.find("status\t" + id);
    if (status == ref.end() || status->second != s.status) {
      ++wrong;
      std::printf("# WRONG verdict %s: got %s, reference %s\n", id.c_str(),
                  s.status.c_str(),
                  status == ref.end() ? "(none)" : status->second.c_str());
    }
    const auto key = ref.find("key\t" + id);
    if (key != ref.end() && key->second != s.key) ++key_changes;
  }
  return wrong;
}

std::size_t count_failed(const LoadResult& load) {
  std::size_t failed = 0;
  for (const Sample& s : load.samples) failed += s.outcome != Outcome::Ok;
  return failed;
}

std::vector<double> latencies_ms(const LoadResult& load) {
  std::vector<double> out;
  for (const Sample& s : load.samples)
    if (s.outcome == Outcome::Ok) out.push_back((s.done - s.send) * 1e3);
  return out;
}

volatile double g_reference_sink = 0.0;

/// Fixed reference work on the calling thread: formats, parses and hashes
/// text and multiplies small matrices, the kinds of work of a warm request.
/// It is benchmark code, so no change to the program moves it.
double reference_rep(double (*clock)() = now_s) {
  const double t0 = clock();
  std::string text;
  char buf[32];
  for (int i = 0; i < 400; ++i) {
    std::snprintf(buf, sizeof buf, "%.17g ", 1.0 / (i + 3));
    text += buf;
  }
  double acc = 0.0;
  const char* p = text.c_str();
  char* end = nullptr;
  for (double v = std::strtod(p, &end); end != p; v = std::strtod(p, &end)) {
    acc += v;
    p = end;
  }
  std::uint64_t h = 1469598103934665603ull;
  for (int r = 0; r < 8; ++r)
    for (const char c : text)
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  constexpr int n = 20;
  std::vector<double> a(n * n, 1.0001), b(n * n, acc * 1e-3), c(n * n, 0.0);
  for (int r = 0; r < 6; ++r)
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k)
        for (int j = 0; j < n; ++j) c[i * n + j] += a[i * n + k] * b[k * n + j];
  g_reference_sink = c[7] + static_cast<double>(h & 7);
  return clock() - t0;
}

/// CPU seconds of the calling thread.
double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Median time of reference_rep over `seconds` (microseconds).
double reference_us(double seconds) {
  std::vector<double> reps;
  const double until = now_s() + seconds;
  while (now_s() < until) reps.push_back(reference_rep());
  return median(reps) * 1e6;
}

/// warm-hits measures in back-to-back windows of this length, each followed
/// by kReferenceSeconds of reference work on the same CPU.
constexpr double kWindowSeconds = 1.0;
constexpr double kReferenceSeconds = 0.1;
/// reference_rep's median on the four-core VM this was tuned on, in its fast
/// state: warm-hits times are reported at this reference speed.
constexpr double kReferenceUs = 280.0;

/// cold-fill's counterpart of warm-hits' per-window scaling (see
/// run_windows).  While the fill runs, a client thread samples the allowed
/// CPUs in turn every kMonitorPeriod: pinned to one, it times 20 repetitions
/// of the reference work in its own CPU time, so a worker sharing that CPU
/// does not count against it.  The fill's figures are scaled by the median
/// speed of all samples.
class SpeedMonitor {
 public:
  SpeedMonitor() : thread_([this] { loop(); }) {}
  ~SpeedMonitor() { (void)stop(); }
  SpeedMonitor(const SpeedMonitor&) = delete;
  SpeedMonitor& operator=(const SpeedMonitor&) = delete;

  /// Stops sampling; returns the median speed (kReferenceUs / time).
  double stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return speeds_.empty() ? 1.0 : median(speeds_);
  }
  [[nodiscard]] std::size_t samples() const { return speeds_.size(); }

 private:
  static constexpr double kMonitorPeriod = 0.25;
  void loop() {
    const std::vector<int> cpus = allowed_cpus();
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0; !stopping_; ++k) {
      lock.unlock();
      pin_threads(0, {cpus[k % cpus.size()]});
      std::vector<double> reps;
      for (int r = 0; r < 20; ++r) reps.push_back(reference_rep(thread_cpu_s));
      const double speed = kReferenceUs / (median(reps) * 1e6);
      lock.lock();
      speeds_.push_back(speed);
      cv_.wait_for(lock, std::chrono::duration<double>(kMonitorPeriod),
                   [this] { return stopping_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> speeds_;
  std::thread thread_;  ///< last: starts once the members above exist
};

struct WindowStats {
  double p50 = 0.0, p90 = 0.0, rps = 0.0, cpu_per_op_ms = 0.0;  ///< scaled
  double raw_p50 = 0.0;  ///< median of the windows' unscaled p50
};

/// warm-hits' measured phase.  Each window pins the client and every thread
/// of the server to one CPU, rotating over the CPUs this process may use,
/// so every handoff between client, event loop and worker is a context
/// switch on that CPU rather than a cross-CPU wake-up.
///
/// The host runs this VM's CPUs at two speeds about 1.6x apart, switching
/// within seconds and sometimes staying slow for minutes (most likely
/// another guest on the sibling hyperthread).  No statistic over a run
/// cures a run that is slow throughout, so each window's figures are
/// scaled by kReferenceUs / the reference work's time measured right after
/// it on the same CPU, and a run reports the median over its windows.  The
/// scaled times track the window's raw times (a slow window's reference
/// reads slow by the same factor); the raw medians are printed beside them.
LoadResult run_windows(ServerProcess& server, std::size_t connections,
                       double seconds,
                       const std::function<std::size_t(std::size_t)>& draw,
                       const std::function<std::string(std::size_t)>& line_of,
                       double miss_ms, WindowStats& out) {
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t count = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(seconds / kWindowSeconds)));
  LoadResult load;
  std::vector<double> p50, p90, rps, cpu_ms, speed;
  for (std::size_t w = 0; w < count; ++w) {
    const std::vector<int> cpu = {cpus[w % cpus.size()]};
    pin_threads(0, cpu);  // the connection threads inherit it
    pin_threads(server.pid(), cpu);
    const double cpu0 = process_cpu_seconds(server.pid());
    const double until = now_s() + kWindowSeconds;
    LoadResult part = run_closed_loop(
        server, connections,
        [&](std::size_t c) -> std::optional<std::size_t> {
          if (now_s() >= until) return std::nullopt;
          return draw(c);
        },
        line_of, kWindowSeconds + 60.0);
    const double cpu1 = process_cpu_seconds(server.pid());
    speed.push_back(kReferenceUs / reference_us(kReferenceSeconds));
    const std::vector<double> lat = latencies_ms(part);
    const std::size_t failed = count_failed(part);
    p50.push_back(percentile(lat, failed, miss_ms, 0.50, kP50Window));
    p90.push_back(percentile(lat, failed, miss_ms, 0.90));
    rps.push_back(part.wall > 0 ? lat.size() / part.wall : 0.0);
    cpu_ms.push_back(lat.empty() ? miss_ms : (cpu1 - cpu0) / lat.size() * 1e3);
    load.wall += part.wall;
    load.connect_failed = load.connect_failed || part.connect_failed;
    load.watchdog_fired = load.watchdog_fired || part.watchdog_fired;
    for (Sample& s : part.samples) load.samples.push_back(std::move(s));
    if (part.connect_failed || part.watchdog_fired) break;
  }
  pin_threads(0, cpus);
  const auto scaled = [&](const std::vector<double>& v, bool rate) {
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); ++i)
      out.push_back(rate ? v[i] / speed[i] : v[i] * speed[i]);
    return out;
  };
  std::printf("# windows: %zu x %.1f s over cpus", p50.size(), kWindowSeconds);
  for (const int c : cpus) std::printf(" %d", c);
  std::printf("\n# window p50_ms (raw):");
  for (const double v : p50) std::printf(" %.4f", v);
  std::printf("\n# window reference speed:");
  for (const double v : speed) std::printf(" %.3f", v);
  std::printf("\n# raw medians: verify_p50_ms %.6f verify_p90_ms %.6f "
              "throughput_rps %.1f cpu_per_op_ms %.6f\n",
              median(p50), median(p90), median(rps), median(cpu_ms));
  out.raw_p50 = median(p50);
  out.p50 = median(scaled(p50, false));
  out.p90 = median(scaled(p90, false));
  out.rps = median(scaled(rps, true));
  out.cpu_per_op_ms = median(scaled(cpu_ms, false));
  return load;
}

// ------------------------------------------------------------------ replay

/// What one replayed request produced (for the correctness check).
struct ReplayOutcome {
  std::string status;
  bool run_verify_hit = true;  ///< hits only: run_verify agreed and hit too
};

/// The service handler's work for one request, one public call per span,
/// in the order service::handle_verify and verify::run_verify make them.
ReplayOutcome replay_request(const ServiceRequest& r,
                             const std::string& cases_dir,
                             spiv::store::CertStore& store, Tracer* tr,
                             std::uint64_t parent, std::uint64_t req,
                             LayerSamples& layers, std::mutex& layers_mutex) {
  using namespace spiv;
  ReplayOutcome out;
  const std::string stag = size_tag(r.size);
  model::BenchmarkModel bm;
  {
    Span s{tr, "model.read_case", parent, req, stag};
    std::ifstream in{cases_dir + "/" + r.case_name + ".spivcase"};
    bm = model::read_case(in);
  }
  numeric::Matrix a;
  {
    Span s{tr, "model.close_loop", parent, req, stag};
    a = model::close_loop_single_mode(bm.plant, bm.controller.gains[r.mode]).a;
  }
  const lyap::Method method = *lyap::method_from_string(r.method);
  std::optional<sdp::Backend> backend;
  if (r.backend != "-") backend = sdp::backend_from_string(r.backend);
  lyap::SynthesisOptions options;
  if (backend) options.backend = *backend;

  store::CertRequest cr;
  cr.a = a;
  cr.method = method;
  cr.backend = backend;
  cr.engine = smt::Engine::Sylvester;
  cr.digits = 10;
  cr.set_synthesis_params(options);
  std::string key;
  {
    Span s{tr, "store.key", parent, req, stag};
    key = store::request_key(cr);
  }
  std::shared_ptr<const store::CertRecord> rec;
  {
    Span s{tr, "store.lookup", parent, req};
    rec = store.lookup(key);
    s.set_tag(rec ? "memory" : "miss");
  }
  if (rec) {
    out.status = rec->validation.valid() ? "valid" : "invalid";
    // The same hit through the pipeline's one entry point: its glue cost
    // beyond key + lookup is verify.self_us.
    verify::VerifyContext ctx;
    ctx.store = &store;
    verify::VerifyRequest vreq;
    vreq.a = a;
    vreq.method = method;
    vreq.backend = backend;
    vreq.engine = smt::Engine::Sylvester;
    vreq.digits = 10;
    vreq.budget = verify::SharedBudget{kRequestTimeout};
    Span s{tr, "verify.run_verify", parent, req};
    const verify::VerifyOutcome o = verify::run_verify(ctx, vreq);
    out.run_verify_hit = o.cache == verify::Cache::Hit &&
                         verify::to_string(o.status) == out.status;
    return out;
  }

  lyap::Candidate cand;
  int iterations = -1;
  {
    Span synth{tr, "lyapunov.synth", parent, req, r.method};
    SynthReplay sr = replay_synthesis(a, method, options, tr, synth.id(), req);
    iterations = sr.iterations;
    if (!sr.candidate) {
      out.status = "synth-failed";
      return out;
    }
    cand = std::move(*sr.candidate);
    cand.synth_seconds = synth.elapsed();
  }
  smt::LyapunovValidation v;
  {
    Span s{tr, "smt.validate", parent, req, stag};
    v = smt::validate_lyapunov(a, cand.p, smt::Engine::Sylvester, 10);
  }
  {
    Span s{tr, "store.insert", parent, req};
    store.insert(key, store::CertRecord{cand, v});
  }
  out.status = v.valid() ? "valid" : "invalid";
  std::lock_guard<std::mutex> lock(layers_mutex);
  if (iterations >= 0)
    layers.add("sdp.iterations." + metric_safe(r.backend), iterations);
  layers.add("smt.positivity_ms." + stag, v.positivity.seconds * 1e3);
  layers.add("smt.decrease_ms." + stag, v.decrease.seconds * 1e3);
  return out;
}

struct ReplayRun {
  std::vector<SpanRec> spans;
  std::size_t wrong = 0;
  std::size_t requests = 0;
  double wall = 0.0;
  std::uint64_t bytes_written = 0;
  double steals = 0.0;
};

/// Replay each connection's request sequence closed-loop through a JobPool
/// with the server's worker count; `warm_first` re-creates the warm store.
ReplayRun replay(const Options& opt, const std::vector<ServiceRequest>& reqs,
                 const std::vector<std::vector<std::size_t>>& sequences,
                 const std::string& cases_dir, bool warm_first,
                 const Reference& ref, LayerSamples& layers) {
  const std::string store_dir = opt.work_dir + "/replay-store";
  fs::remove_all(store_dir);
  spiv::store::CertStore store{store_dir};
  spiv::core::JobPool pool{opt.nproc};
  std::mutex layers_mutex;
  if (warm_first) {
    LayerSamples scratch;
    for (const ServiceRequest& r : warm_set())
      pool.submit([&, r] {
        try {  // a failed warm-up shows up as misses in the replay
          (void)replay_request(r, cases_dir, store, nullptr, 0, 0, scratch,
                               layers_mutex);
        } catch (const std::exception&) {
        }
      });
    pool.wait_idle();
  }
  ReplayRun run;
  const std::uint64_t bytes0 = dir_bytes(store_dir);
  auto& steals = spiv::obs::Registry::global().counter("spiv_pool_steals_total");
  const double steals0 = static_cast<double>(steals.value());
  Tracer tracer;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::uint64_t> next_request{1};
  const double t0 = now_s();
  std::vector<std::thread> clients;
  for (const auto& seq : sequences)
    clients.emplace_back([&, seq] {
      for (const std::size_t idx : seq) {
        const ServiceRequest& r = reqs[idx];
        const std::uint64_t req = next_request.fetch_add(1);
        Span root{&tracer, "request", 0, req, size_tag(r.size)};
        // The job owns the promise: the client may return from get() while
        // set_value is still unwinding on the worker.
        auto done = std::make_shared<std::promise<ReplayOutcome>>();
        std::future<ReplayOutcome> result = done->get_future();
        const double submitted = now_s();
        pool.submit([&, done, submitted, req] {
          const double started = now_s();
          tracer.record({"core.pool_wait", "", submitted, started,
                         tracer.next_id(), root.id(), req});
          ReplayOutcome o;
          try {  // jobs must not throw
            Span job{&tracer, "service.job", root.id(), req};
            o = replay_request(r, cases_dir, store, &tracer, job.id(), req,
                               layers, layers_mutex);
          } catch (const std::exception& e) {
            o.status = std::string{"error: "} + e.what();
          }
          done->set_value(std::move(o));
        });
        const ReplayOutcome o = result.get();
        const auto status = ref.find("status\t" + r.id());
        if (status == ref.end() || status->second != o.status ||
            !o.run_verify_hit) {
          ++wrong;
          std::printf("# WRONG replay verdict %s: got %s\n", r.id().c_str(),
                      o.status.c_str());
        }
      }
    });
  for (auto& c : clients) c.join();
  pool.wait_idle();
  run.wall = now_s() - t0;
  run.requests = next_request.load() - 1;
  run.wrong = wrong.load();
  run.bytes_written = dir_bytes(store_dir) - bytes0;
  run.steals = static_cast<double>(steals.value()) - steals0;
  run.spans = tracer.collect();
  return run;
}

/// Per-layer metrics from the socket phase (client timestamps + server
/// metrics deltas) and the in-process replay.
std::map<std::string, double> layer_metrics(
    const Options& opt, const LoadResult& load,
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after, std::size_t before_bytes,
    const ReplayRun& run, LayerSamples& layers, double p50_ms) {
  const auto delta = [&](const std::string& series) {
    const auto a = after.find(series), b = before.find(series);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  std::vector<double> ack, after_ack;
  std::size_t ok = 0;
  for (const Sample& s : load.samples) {
    if (s.outcome == Outcome::Busy || s.outcome == Outcome::Ok)
      ack.push_back((s.ack - s.send) * 1e6);
    if (s.outcome != Outcome::Ok) continue;
    after_ack.push_back((s.done - s.ack) * 1e6);
    ++ok;
  }
  layers.set("net.ack_us", median(ack));
  layers.set("service.after_ack_us", median(after_ack));
  layers.set("service.shed", delta("spiv_serve_shed_total"));
  // The before-scrape's own response and both `metrics` request lines land
  // inside the delta window; take them out.
  const double net_bytes = delta("spiv_net_bytes_read_total") +
                           delta("spiv_net_bytes_written_total") -
                           static_cast<double>(before_bytes) - 16.0;
  layers.set("net.bytes_per_req", ok ? net_bytes / ok : 0.0);

  // Replay spans -> layer samples, plus per-request sums for coverage.
  const std::vector<double> self = self_times(run.spans);
  std::map<std::uint64_t, double> attributed, key_lookup, verify_span;
  double job_time = 0.0;
  std::size_t hits = 0, lookups = 0;
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const SpanRec& s = run.spans[i];
    const std::string name = s.name;
    const double d = s.end - s.start;
    if (name != "verify.run_verify") attributed[s.request] += self[i];
    if (name == "core.pool_wait") layers.add("core.pool_wait_us", d * 1e6);
    if (name == "service.job") job_time += d;
    if (name == "model.read_case") layers.add("model.read_case_us." + s.tag, d * 1e6);
    if (name == "model.close_loop") layers.add("model.close_loop_us." + s.tag, d * 1e6);
    if (name == "store.key") {
      layers.add("store.key_us." + s.tag, d * 1e6);
      key_lookup[s.request] += d;
    }
    if (name == "store.lookup") {
      ++lookups;
      key_lookup[s.request] += d;
      if (s.tag == "memory") {
        ++hits;
        layers.add("store.lookup_memory_us", d * 1e6);
      } else {
        layers.add("store.lookup_miss_us", d * 1e6);
      }
    }
    if (name == "store.insert") layers.add("store.insert_ms", d * 1e3);
    if (name == "verify.run_verify") {
      layers.add("verify.hit_us", d * 1e6);
      verify_span[s.request] = d;
    }
    if (name == "lyapunov.synth")
      layers.add("lyapunov.synth_ms." + metric_safe(s.tag), d * 1e3);
    if (name == "sdp.solve")
      layers.add("sdp.solve_ms." + metric_safe(s.tag), d * 1e3);
  }
  // Unclamped: when run_verify's glue is below timing noise the median may
  // read slightly negative, which is itself the finding.
  for (const auto& [req, d] : verify_span)
    layers.add("verify.self_us", (d - key_lookup[req]) * 1e6);
  layers.set("store.hit_ratio", lookups ? double(hits) / lookups : 0.0);
  layers.set("store.bytes_written", static_cast<double>(run.bytes_written));
  layers.set("core.busy_frac",
             run.wall > 0 ? job_time / (static_cast<double>(opt.nproc) * run.wall) : 0.0);
  layers.set("core.steals", run.steals);

  // Same statistic as verify_p50_ms (the interquartile mean), so coverage
  // compares like with like.
  std::vector<double> per_request;
  for (const auto& [req, t] : attributed) per_request.push_back(t * 1e3);
  const double replay_ms = percentile(per_request, 0, 0.0, 0.50, kP50Window);
  layers.set("bench.trace_coverage",
             p50_ms > 0 ? (median(ack) * 1e-3 + replay_ms) / p50_ms : 0.0);
  const double spans_per_request =
      run.requests ? double(run.spans.size()) / run.requests : 0.0;
  layers.set("bench.trace_overhead",
             replay_ms > 0
                 ? span_cost_seconds() * spans_per_request * 1e3 / replay_ms
                 : 0.0);
  print_breakdown(run.spans, self);
  std::printf("# replay: %zu requests, wall %.3f s, attributed %.4f ms\n",
              run.requests, run.wall, replay_ms);
  return layers.finish();
}

void print_server_deltas(const std::map<std::string, double>& before,
                         const std::map<std::string, double>& after) {
  std::printf("# server metrics deltas over the measured phase\n");
  for (const auto& [series, value] : after) {
    const bool wanted =
        series.rfind("spiv_stage_seconds", 0) == 0 ||
        series.rfind("spiv_pool_", 0) == 0 ||
        series.rfind("spiv_store_", 0) == 0 ||
        series.rfind("spiv_modular_", 0) == 0 ||
        series.rfind("spiv_net_", 0) == 0 || series.rfind("spiv_serve_", 0) == 0;
    if (!wanted || series.find("_bucket") != std::string::npos) continue;
    const auto b = before.find(series);
    const double d = value - (b == before.end() ? 0.0 : b->second);
    if (d != 0.0) std::printf("#   %-64s %.6g\n", series.c_str(), d);
  }
}

}  // namespace

RunResult run_service_workload(const Options& opt, bool warm) {
  RunResult res;
  const std::vector<ServiceRequest> reqs = warm ? warm_set() : cold_set();
  const std::string ref_path = opt.reference_dir + "/service.tsv";
  const std::optional<Reference> loaded = read_reference(ref_path);
  Reference ref = loaded.value_or(Reference{});
  if (!loaded && !opt.record_reference) {
    std::printf("# missing reference %s\n", ref_path.c_str());
    res.reference_missing = true;
  }
  const std::string cases_dir = opt.work_dir + "/cases";
  const std::string store_dir = opt.work_dir + "/store";
  const std::string socket = opt.work_dir + "/spiv.sock";
  const std::string log = opt.work_dir + "/spiv-serve.log";
  // cold-fill: half the cores carry load; on a four-core VM one connection
  // per core left the client, the event loop and the workers fighting for
  // the CPU, and run-to-run spread reached 20% (CPU time per op included).
  // warm-hits: one connection, each window on one CPU (see run_windows).
  const std::size_t connections =
      warm ? 1 : std::max<std::size_t>(1, opt.nproc / 2);
  std::printf("# server: spiv-serve --jobs %zu, connections %zu, %s\n",
              opt.nproc, connections,
              warm ? "store pre-warmed with 20 keys" : "empty store");

  // Set-up: spawn + case export (+ warm-up).  Repeated and the median
  // reported; the last server stays up for the measured phase.  Without a
  // warm-up a set-up takes milliseconds, so it takes many repeats to steady.
  const std::size_t setups = opt.trace ? 1 : warm ? 3 : kColdSetups;
  std::vector<double> setup_times;
  std::unique_ptr<ServerProcess> server;
  std::vector<ServiceRequest> warm_order = warm_set();
  std::stable_sort(warm_order.begin(), warm_order.end(),
                   [](const ServiceRequest& a, const ServiceRequest& b) {
                     return a.size > b.size;  // longest validations first
                   });
  const auto line_in = [&](const std::vector<ServiceRequest>& set) {
    return [&](std::size_t i) {
      return "verify " + set[i].tail(cases_dir, kRequestTimeout);
    };
  };
  for (std::size_t k = 0; k < setups; ++k) {
    if (server) server->stop();
    server.reset();
    fs::remove_all(store_dir);
    fs::remove_all(cases_dir);
    const double t0 = now_s();
    export_cases(cases_dir);
    server = std::make_unique<ServerProcess>(opt.serve_bin, socket, store_dir,
                                             opt.nproc, log);
    if (warm) {
      std::atomic<std::size_t> cursor{0};
      const LoadResult w = run_closed_loop(
          *server, opt.nproc,
          [&](std::size_t) -> std::optional<std::size_t> {
            const std::size_t i = cursor.fetch_add(1);
            if (i < warm_order.size()) return i;
            return std::nullopt;
          },
          line_in(warm_order), 150.0);
      std::size_t key_changes = 0;
      if (count_failed(w) != 0 || w.samples.size() != warm_order.size())
        throw std::runtime_error("warm-up requests failed");
      if (check_samples(w.samples, warm_order, ref, key_changes) != 0 &&
          !opt.record_reference)
        throw std::runtime_error("warm-up verdicts differ from the reference");
    }
    setup_times.push_back(now_s() - t0);
  }
  std::printf("# set-up: %zu runs, median %.4f s, range %.4f - %.4f s\n",
              setup_times.size(), median(setup_times),
              *std::min_element(setup_times.begin(), setup_times.end()),
              *std::max_element(setup_times.begin(), setup_times.end()));

  // Measured phase.
  std::size_t before_bytes = 0;
  std::map<std::string, double> before, after;
  if (opt.trace) {
    // The response to the scrape that opens the window is written inside
    // it; a first scrape measures how many bytes one response takes.
    before = server->scrape();
    const auto b0 = before.find("spiv_net_bytes_written_total");
    const auto probe = server->scrape();
    const auto b1 = probe.find("spiv_net_bytes_written_total");
    if (b0 != before.end() && b1 != probe.end())
      before_bytes = static_cast<std::size_t>(b1->second - b0->second);
    before = probe;
  }
  const double cpu0 = process_cpu_seconds(server->pid());
  Rng rng = connection_rng(opt.seed, 0);  // warm-hits: one connection
  // cold-fill: seeded order within each plant size, largest plants first,
  // so the last requests of a fill are short and the seed cannot park a
  // size-18 request at the tail of the wall clock.
  std::vector<std::size_t> order = seeded_order(opt.seed, reqs.size());
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return reqs[a].size > reqs[b].size;
  });
  std::atomic<std::size_t> cursor{0};
  const double hard_limit = warm ? kWindowSeconds + 60.0 : 150.0;
  const double miss_ms = hard_limit * 1e3;
  WindowStats windows;
  std::optional<SpeedMonitor> monitor;
  if (!warm) monitor.emplace();
  const LoadResult load =
      warm ? run_windows(
                 *server, connections, opt.seconds,
                 [&](std::size_t) { return rng.below(reqs.size()); },
                 line_in(reqs), miss_ms, windows)
           : run_closed_loop(
                 *server, connections,
                 [&](std::size_t) -> std::optional<std::size_t> {
                   const std::size_t i = cursor.fetch_add(1);
                   if (i < order.size()) return order[i];
                   return std::nullopt;
                 },
                 line_in(reqs), hard_limit);
  const double cpu1 = process_cpu_seconds(server->pid());
  const double speed = monitor ? monitor->stop() : 1.0;
  const double rss = process_peak_rss_mb(server->pid());
  if (opt.trace) after = server->scrape();
  server->stop();
  server.reset();
  if (load.connect_failed) throw std::runtime_error("cannot connect");

  std::size_t key_changes = 0;
  if (!opt.record_reference)
    res.wrong_verdicts = check_samples(load.samples, reqs, ref, key_changes);
  res.failed = count_failed(load);
  res.attempted = load.samples.size();
  if (!warm && res.attempted < reqs.size()) {  // never sent: lost
    res.failed += reqs.size() - res.attempted;
    res.attempted = reqs.size();
  }
  std::size_t non_hits = 0;
  for (const Sample& s : load.samples)
    non_hits += warm && s.outcome == Outcome::Ok && s.cache != "hit";
  if (key_changes)
    std::printf("# note: %zu result keys differ from the reference keys\n",
                key_changes);
  if (non_hits)
    std::printf("# note: %zu warm-hits requests were not cache hits\n", non_hits);
  if (load.watchdog_fired)
    std::printf("# watchdog: phase exceeded %.0f s, server killed\n", hard_limit);

  const std::vector<double> lat = latencies_ms(load);
  const std::size_t ok = lat.size();
  double p50 = percentile(lat, res.failed, miss_ms, 0.50, kP50Window);
  double p90 = percentile(lat, res.failed, miss_ms, 0.90);
  double rps = load.wall > 0 ? ok / load.wall : 0.0;
  double cpu_per_op = ok ? (cpu1 - cpu0) / ok * 1e3 : 0.0;
  if (warm) {
    p50 = windows.p50;
    p90 = windows.p90;
    rps = windows.rps;
    cpu_per_op = windows.cpu_per_op_ms;
  } else {
    std::printf("# raw: verify_p50_ms %.6f verify_p90_ms %.6f throughput_rps "
                "%.4f cpu_per_op_ms %.6f; reference speed %.3f (%zu samples)\n",
                p50, p90, rps, cpu_per_op, speed, monitor->samples());
    p50 *= speed;
    p90 *= speed;
    rps /= speed;
    cpu_per_op *= speed;
  }
  std::printf("# samples %zu ok %zu failed %zu wall %.3f s\n", res.attempted,
              ok, res.failed, load.wall);
  if (res.attempted >= 1000)
    std::printf("# verify_p99_ms = %.6f ms (%zu samples, %zu beyond)\n",
                percentile(lat, res.failed, miss_ms, 0.99, 0.005),
                res.attempted, res.attempted / 100);

  if (opt.record_reference && !warm) {
    Reference out = ref;  // warm-hits also uses mode 1: keep those entries
    for (const Sample& s : load.samples)
      if (s.outcome == Outcome::Ok) {
        out["status\t" + reqs[s.request].id()] = s.status;
        out["key\t" + reqs[s.request].id()] = s.key;
      }
    write_reference(ref_path, out,
                    "# spivbench reference: verdict and cache key per "
                    "service request (sylvester, 10 digits)\n");
    std::printf("# wrote %s (%zu entries)\n", ref_path.c_str(), out.size());
  }

  if (!opt.trace) {
    res.metrics = {
        {"verify_p50_ms", "ms", p50},
        {"verify_p90_ms", "ms", p90},
        {"throughput_rps", "req/s", rps},
        {"cpu_per_op_ms", "ms", cpu_per_op},
        {"peak_rss_mb", "MB", rss},
        {"setup_s", "s", median(setup_times)},
    };
    return res;
  }

  print_server_deltas(before, after);
  // Replay: each connection's sequence as it was issued (capped per
  // connection so a long warm run's replay stays short).
  std::vector<std::vector<std::size_t>> sequences(connections);
  for (const Sample& s : load.samples)
    if (sequences[s.connection].size() < kReplayPerConnection)
      sequences[s.connection].push_back(s.request);
  LayerSamples layers;
  const ReplayRun run =
      replay(opt, reqs, sequences, cases_dir, warm, ref, layers);
  res.wrong_verdicts += run.wrong;
  // cold-fill sends no eq-smt request; its traced run also covers the
  // exact layer.
  if (!warm) res.wrong_verdicts += trace_exact_layer(opt, layers);
  const std::map<std::string, double> values = layer_metrics(
      opt, load, before, after, before_bytes, run, layers,
      warm ? windows.raw_p50 : p50);
  write_jsonl(opt.work_dir + "/trace-" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + ".jsonl",
              run.spans);
  res.metrics = per_layer_metrics(values);
  return res;
}

}  // namespace spivbench
