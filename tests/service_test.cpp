// Tests for the spiv-serve protocol: parse errors, cold-then-warm verify
// through the certificate store, and the guarantee that a warm request is
// answered from the store without invoking any synthesis kernel.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "model/reduction.hpp"
#include "model/serialize.hpp"

namespace spiv::service {
namespace {

namespace fs = std::filesystem;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("spiv_service_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Export the size-3, size-5 and size-15 benchmark cases once.
    for (const auto& bm : model::benchmark_family())
      if (bm.name == "size3" || bm.name == "size5" || bm.name == "size15") {
        std::ofstream out{case_path(bm.name)};
        model::write_case(out, bm);
      }
    ASSERT_TRUE(fs::exists(case_path()));
    ASSERT_TRUE(fs::exists(case_path("size5")));
    ASSERT_TRUE(fs::exists(case_path("size15")));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string case_path(const std::string& name = "size3") const {
    return (dir_ / (name + ".spivcase")).string();
  }
  [[nodiscard]] std::string cache_path() const {
    return (dir_ / "cache").string();
  }

  /// Drive the protocol and return the full response transcript.
  std::string drive(const std::string& script, store::CertStore* store,
                    int* errors = nullptr) {
    ServeOptions options;
    options.jobs = 2;
    options.default_timeout_seconds = 30.0;
    options.store = store;
    return drive_with(options, script, errors);
  }

  /// Same, with caller-supplied options (admission bounds, handler hooks).
  std::string drive_with(const ServeOptions& options,
                         const std::string& script, int* errors = nullptr) {
    std::istringstream in{script};
    std::ostringstream out;
    const int e = serve(in, out, options);
    if (errors) *errors = e;
    return out.str();
  }

  /// The `result id=N ...` line of the transcript.
  static std::string result_line(const std::string& transcript,
                                 std::size_t id) {
    std::istringstream is{transcript};
    const std::string prefix = "result id=" + std::to_string(id) + " ";
    std::string line;
    while (std::getline(is, line))
      if (line.rfind(prefix, 0) == 0) return line;
    return "";
  }

  /// Numeric `name=value` field of a result line; -1 when absent.
  static double field_double(const std::string& line, const std::string& name) {
    const std::size_t pos = line.find(" " + name + "=");
    if (pos == std::string::npos) return -1.0;
    return std::stod(line.substr(pos + name.size() + 2));
  }

  /// Text of a `name=value` field of a result line; empty when absent.
  static std::string field_string(const std::string& line,
                                  const std::string& name) {
    const std::size_t pos = line.find(" " + name + "=");
    if (pos == std::string::npos) return "";
    const std::size_t begin = pos + name.size() + 2;
    return line.substr(begin, line.find(' ', begin) - begin);
  }

  /// Value of the exposition sample named exactly `name`; -1 when absent.
  static double sample_value(const std::string& exposition,
                             const std::string& name) {
    std::istringstream is{exposition};
    std::string line;
    while (std::getline(is, line))
      if (line.rfind(name + " ", 0) == 0)
        return std::stod(line.substr(name.size() + 1));
    return -1.0;
  }

  /// Options for a store-backed run with the real pipeline.
  static ServeOptions store_options(store::CertStore* store) {
    ServeOptions options;
    options.jobs = 2;
    options.default_timeout_seconds = 30.0;
    options.store = store;
    return options;
  }

  /// A result line without its `result id=N` prefix: two answers to the
  /// same request must agree on everything after it.
  static std::string after_id(const std::string& line) {
    const std::size_t cut = line.find(' ', std::string{"result id="}.size());
    return cut == std::string::npos ? "" : line.substr(cut);
  }

  static std::uint64_t memo_hits() {
    return obs::Registry::global()
        .counter("spiv_serve_key_memo_hits_total")
        .value();
  }

  /// Jobs run to completion by every JobPool in the process.
  static std::uint64_t jobs_executed() {
    return obs::Registry::global()
        .counter("spiv_pool_jobs_executed_total")
        .value();
  }

  /// The built-in pipeline behind an injected Handler: every request runs
  /// on the pool, as every request did before warm hits were answered on
  /// the transport thread.
  static ServeOptions pool_served(ServeOptions options) {
    options.handler = [inner = default_handler()](
                          const Request& req, store::CertStore* store,
                          double ttl, const CancelToken& token) {
      return inner(req, store, ttl, token);
    };
    return options;
  }

  fs::path dir_;
};

/// One Engine and Session kept alive across steps, so a test can change
/// files or stores between requests while the Engine's key memo persists.
class LiveSession {
 public:
  explicit LiveSession(const ServeOptions& options)
      : engine_{options},
        session_{engine_, [this](const std::string& line) {
                   std::lock_guard<std::mutex> lock(mutex_);
                   transcript_ += line + "\n";
                 }} {}

  /// Feed one request line and return its result line once answered.
  std::string run(const std::string& line) {
    const std::size_t id = next_id_++;
    (void)session_.handle_line(line);
    engine_.wait_idle();
    std::lock_guard<std::mutex> lock(mutex_);
    std::istringstream is{transcript_};
    const std::string prefix = "result id=" + std::to_string(id) + " ";
    for (std::string out; std::getline(is, out);)
      if (out.rfind(prefix, 0) == 0) return out;
    return "";
  }

 private:
  Engine engine_;
  std::mutex mutex_;
  std::string transcript_;
  Session session_;
  std::size_t next_id_ = 1;
};

TEST_F(ServiceTest, RejectsMalformedRequests) {
  int errors = 0;
  const std::string transcript = drive(
      "verify\n"
      "verify missing.case 0 no-such-method - sylvester 10\n"
      "verify missing.case 0 LMIa no-such-backend sylvester 10\n"
      "verify missing.case 0 LMIa - no-such-engine 10\n"
      "frobnicate\n"
      "quit\n",
      nullptr, &errors);
  EXPECT_EQ(errors, 5);
  EXPECT_NE(result_line(transcript, 1).find("status=error"), std::string::npos);
  EXPECT_NE(result_line(transcript, 2).find("unknown method"),
            std::string::npos);
  EXPECT_NE(result_line(transcript, 3).find("unknown backend"),
            std::string::npos);
  EXPECT_NE(result_line(transcript, 4).find("unknown engine"),
            std::string::npos);
  EXPECT_NE(transcript.find("error unknown command"), std::string::npos);
}

TEST_F(ServiceTest, ReportsMissingCaseFileAsError) {
  int errors = 0;
  const std::string transcript = drive(
      "verify /nonexistent/case 0 LMIa newton-ac sylvester 10\nquit\n",
      nullptr, &errors);
  EXPECT_EQ(errors, 1);
  const std::string line = result_line(transcript, 1);
  EXPECT_NE(line.find("status=error"), std::string::npos);
  EXPECT_NE(line.find("cannot open case file"), std::string::npos);
}

TEST_F(ServiceTest, VerifiesWithoutStore) {
  const std::string transcript = drive(
      "verify " + case_path() + " 0 LMIa newton-ac sylvester 10\nquit\n",
      nullptr);
  const std::string line = result_line(transcript, 1);
  EXPECT_NE(line.find("status=valid"), std::string::npos) << line;
  EXPECT_NE(line.find("cache=off"), std::string::npos) << line;
  EXPECT_NE(line.find("model=size3"), std::string::npos) << line;
}

TEST_F(ServiceTest, ColdMissThenWarmHitThroughTheStore) {
  store::CertStore store{cache_path()};
  // `wait` sequences the two requests so the second observes the first's
  // certificate; both modes exercise the store under one key each.
  const std::string transcript = drive(
      "verify " + case_path() + " 0 LMIa newton-ac sylvester 10\n" +
          "wait\n" +
          "verify " + case_path() + " 0 LMIa newton-ac sylvester 10\n" +
          "stats\nquit\n",
      &store);
  const std::string cold = result_line(transcript, 1);
  const std::string warm = result_line(transcript, 2);
  EXPECT_NE(cold.find("status=valid"), std::string::npos) << cold;
  EXPECT_NE(cold.find("cache=miss"), std::string::npos) << cold;
  EXPECT_NE(warm.find("status=valid"), std::string::npos) << warm;
  EXPECT_NE(warm.find("cache=hit"), std::string::npos) << warm;
  EXPECT_NE(transcript.find("idle"), std::string::npos);

  // Cold and warm agree on the recorded timings (replayed, not re-measured).
  const auto field = [](const std::string& line, const std::string& name) {
    const std::size_t pos = line.find(" " + name + "=");
    return line.substr(pos + name.size() + 2,
                       line.find(' ', pos + 1 + name.size() + 2) -
                           (pos + name.size() + 2));
  };
  EXPECT_EQ(field(cold, "synth_seconds"), field(warm, "synth_seconds"));
  EXPECT_EQ(field(cold, "key"), field(warm, "key"));
}

TEST_F(ServiceTest, WarmRequestNeverInvokesSynthesisKernel) {
  store::CertStore store{cache_path()};
  // Warm the store.
  drive("verify " + case_path() + " 0 LMIa newton-ac sylvester 10\nquit\n",
        &store);
  ASSERT_EQ(store.stats().writes, 1u);
  // A 1 ms budget is far below any synthesis kernel's runtime: the request
  // can only answer `valid` if it was served from the store without
  // touching the kernels at all.
  const std::string transcript = drive(
      "verify " + case_path() + " 0 LMIa newton-ac sylvester 10 0.001\nquit\n",
      &store);
  const std::string line = result_line(transcript, 1);
  EXPECT_NE(line.find("status=valid"), std::string::npos) << line;
  EXPECT_NE(line.find("cache=hit"), std::string::npos) << line;
}

TEST_F(ServiceTest, StatsLineReflectsStoreCounters) {
  store::CertStore store{cache_path()};
  const std::string transcript = drive(
      "verify " + case_path() + " 0 eq-num - sylvester 10\n" +
          "wait\nstats\nquit\n",
      &store);
  EXPECT_NE(transcript.find("stats jobs=2"), std::string::npos);
  EXPECT_NE(transcript.find("writes=1"), std::string::npos);
  const std::string no_store = drive("stats\nquit\n", nullptr);
  EXPECT_NE(no_store.find("store=off"), std::string::npos);
}

TEST_F(ServiceTest, TimeoutBudgetIsSharedBetweenSynthesisAndValidation) {
  // Regression test for the deadline double-spend: synthesis and validation
  // used to each mint a FRESH `timeout_s` deadline, so a request declaring
  // a budget T could run for up to 2T.  The workload (short-step LMI
  // synthesis on size15, validated by the exact LDL^T engine at digits 14)
  // takes roughly equal time in both stages (~0.8 s each on a 4-core
  // Xeon; under ASan synthesis slows about twice as much as validation,
  // and digits 14 keeps validation the larger share there too), which
  // makes the two behaviours observable: with one shared deadline,
  // validation only gets what synthesis left and times out; with a fresh
  // deadline it would finish and answer `valid`.  (Size10i synthesis is
  // too fast next to smt-z3 validation to clear the s >= 0.6 v guard
  // below, and the integer Sylvester engine validates size18 in ~30 ms.)
  const std::string cmd =
      "verify " + case_path("size15") + " 0 LMI short-ipm ldlt 14";

  // Calibrate on this machine under a generous budget.  Take the median of
  // three runs: on a shared host two identical runs can differ by a third,
  // and one slow calibration lets the timed run fit inside s + v/2.
  std::vector<double> synth;
  std::vector<double> validate;
  for (int run = 0; run < 3; ++run) {
    const std::string calib = drive(cmd + " 600\nquit\n", nullptr);
    const std::string calib_line = result_line(calib, 1);
    ASSERT_NE(calib_line.find("status=valid"), std::string::npos)
        << calib_line;
    synth.push_back(field_double(calib_line, "synth_seconds"));
    validate.push_back(field_double(calib_line, "validate_seconds"));
  }
  std::sort(synth.begin(), synth.end());
  std::sort(validate.begin(), validate.end());
  const double s = synth[1];
  const double v = validate[1];
  ASSERT_GT(s, 0.0);
  ASSERT_GT(v, 0.0);
  // The budget below only discriminates when synthesis leaves validation
  // less than it needs (T - s = v/2 < v) while a fresh deadline would have
  // been ample (T = s + v/2 >= v, i.e. s >= v/2), and when both stages are
  // long enough that scheduler noise cannot flip the outcome.
  if (s < 0.2 || v < 0.2 || s < 0.6 * v)
    GTEST_SKIP() << "workload cannot discriminate on this machine (synthesis "
                 << s << " s, validation " << v << " s)";

  const double budget = s + 0.5 * v;
  std::ostringstream request;
  request << cmd << " " << std::setprecision(17) << budget << "\nquit\n";
  const auto t0 = std::chrono::steady_clock::now();
  const std::string transcript = drive(request.str(), nullptr);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::string line = result_line(transcript, 1);
  EXPECT_NE(line.find("status=timeout"), std::string::npos)
      << "request exceeded its declared budget (double-spent deadline?): "
      << line;
  // The whole request stays near its declared budget; the old code ran to
  // completion at ~s+v wall-clock.
  EXPECT_LT(wall, s + v) << "budget " << budget << " s, synthesis " << s
                         << " s, validation " << v << " s";
}

TEST_F(ServiceTest, BatchVerifyPipelinesAndSummarizes) {
  const std::string tail = case_path() + " 0 eq-num - sylvester 10";
  const std::string transcript = drive(
      "batch-verify 3\n" + tail + "\nthis is not a verify tail\n" + tail +
          "\nquit\n",
      nullptr);
  EXPECT_NE(transcript.find("queued ids=1-3 batch=3"), std::string::npos)
      << transcript;
  EXPECT_NE(result_line(transcript, 1).find("status=valid"),
            std::string::npos);
  EXPECT_NE(result_line(transcript, 2).find("status=error"),
            std::string::npos);
  EXPECT_NE(result_line(transcript, 3).find("status=valid"),
            std::string::npos);
  EXPECT_NE(transcript.find("batch-done ids=1-3 ok=2 failed=1 shed=0"),
            std::string::npos)
      << transcript;
}

TEST_F(ServiceTest, TruncatedBatchOnStdinReportsMissingMembers) {
  int errors = 0;
  const std::string transcript = drive(
      "batch-verify 2\n" + case_path() + " 0 eq-num - sylvester 10\n",
      nullptr, &errors);
  EXPECT_NE(transcript.find("error batch truncated (1 member"),
            std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("batch-done ids=1-2 ok=1 failed=0 shed=0"),
            std::string::npos)
      << transcript;
  EXPECT_EQ(errors, 1);
}

TEST_F(ServiceTest, DeadlineCapRidesIntoTheRequestBudget) {
  // Handler hook: record the effective timeout each request ran with.
  std::mutex mutex;
  std::vector<double> budgets;
  ServeOptions options;
  options.jobs = 1;
  options.default_timeout_seconds = 30.0;
  options.handler = [&](const Request& req, store::CertStore*, double,
                        const CancelToken&) {
    std::lock_guard<std::mutex> lock(mutex);
    budgets.push_back(req.timeout_seconds);
    return Response{verify::Status::Valid,
                    "result id=" + std::to_string(req.id) + " status=valid"};
  };
  const std::string tail = " 0 eq-num - sylvester 10";
  // `wait` between requests: the pool does not guarantee completion order,
  // the budgets vector should.
  const std::string transcript = drive_with(
      options, "deadline 5\n"
               "verify a" + tail + " 60\nwait\n"   // capped: 60 -> 5
               "verify b" + tail + " 2\nwait\n" +  // under the cap: stays 2
               "deadline off\n"
               "verify c" + tail + " 60\n"         // cap removed: stays 60
               "wait\nquit\n");
  EXPECT_NE(transcript.find("ok deadline=5"), std::string::npos);
  EXPECT_NE(transcript.find("ok deadline=off"), std::string::npos);
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_EQ(budgets[0], 5.0);
  EXPECT_EQ(budgets[1], 2.0);
  EXPECT_EQ(budgets[2], 60.0);
}

TEST_F(ServiceTest, MaxInflightShedsWithBusyOnStdin) {
  ServeOptions options;
  options.jobs = 2;
  options.max_inflight = 1;
  options.handler = [](const Request& req, store::CertStore*, double,
                       const CancelToken&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return Response{verify::Status::Valid,
                    "result id=" + std::to_string(req.id) + " status=valid"};
  };
  const std::string tail = " 0 eq-num - sylvester 10";
  const std::string transcript = drive_with(
      options, "verify a" + tail + "\nverify b" + tail + "\nverify c" + tail +
                   "\nwait\nquit\n");
  // One admission slot held for 300 ms while stdin feeds three requests:
  // the first is admitted, the other two are shed with `busy` — cheap,
  // immediate, and the stream keeps flowing.
  std::size_t busy = 0, results = 0;
  std::istringstream is{transcript};
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("busy id=", 0) == 0) ++busy;
    if (line.rfind("result id=", 0) == 0) ++results;
  }
  EXPECT_EQ(busy, 2u) << transcript;
  EXPECT_EQ(results, 1u) << transcript;
  EXPECT_NE(transcript.find("idle"), std::string::npos);
}

TEST_F(ServiceTest, BinaryGarbageOnStdinEarnsErrorLinesAndKeepsServing) {
  int errors = 0;
  std::string script;
  script += "\x01\x02\xfe garbage\n";
  script += std::string{"\x00\x7f more\n", 8};
  script += "verify " + case_path() + " 0 eq-num - sylvester 10\nwait\nquit\n";
  const std::string transcript = drive(script, nullptr, &errors);
  EXPECT_EQ(errors, 2);
  EXPECT_NE(result_line(transcript, 1).find("status=valid"),
            std::string::npos)
      << transcript;
}

TEST_F(ServiceTest, NegativeCacheRepaysSynthFailures) {
  store::CertStore store{cache_path()};
  // Handler counting invocations, always failing synthesis — through the
  // REAL pipeline path the service wires (negative_ttl_seconds plumbed
  // from ServeOptions into VerifyContext) this would need an unstable
  // case; here the service-level plumbing is what's under test, so the
  // store is driven directly.
  std::atomic<int> calls{0};
  ServeOptions options;
  options.jobs = 1;
  options.store = &store;
  options.negative_ttl_seconds = 60.0;
  options.handler = [&](const Request& req, store::CertStore* s,
                        double negative_ttl_seconds, const CancelToken&) {
    calls.fetch_add(1);
    EXPECT_EQ(negative_ttl_seconds, 60.0);  // ServeOptions reached the job
    if (auto neg = s->lookup_negative("deadbeef", /*request_budget=*/1.0))
      return Response{verify::Status::SynthFailed,
                      "result id=" + std::to_string(req.id) +
                          " status=synth-failed cache=neg-hit"};
    s->insert_negative("deadbeef", "synth-failed", 0.0,
                       negative_ttl_seconds);
    return Response{verify::Status::SynthFailed,
                    "result id=" + std::to_string(req.id) +
                        " status=synth-failed cache=miss"};
  };
  const std::string tail = " 0 eq-num - sylvester 10";
  const std::string transcript = drive_with(
      options, "verify a" + tail + "\nwait\nverify a" + tail +
                   "\nwait\nstats\nquit\n");
  EXPECT_EQ(calls.load(), 2);
  EXPECT_NE(result_line(transcript, 1).find("cache=miss"), std::string::npos);
  EXPECT_NE(result_line(transcript, 2).find("cache=neg-hit"),
            std::string::npos);
  // The stats line carries the per-tier negative counters.
  EXPECT_NE(transcript.find("neg_hits=1"), std::string::npos) << transcript;
  EXPECT_NE(transcript.find("neg_writes=1"), std::string::npos) << transcript;
}

TEST_F(ServiceTest, MetricsCommandExposesAndIncreasesAcrossRequests) {
  store::CertStore store{cache_path()};
  const std::string transcript = drive(
      "metrics\n"
      "verify " + case_path() + " 0 eq-num - sylvester 10\n" +
          "wait\nmetrics\nquit\n",
      &store);

  // Two scrapes, each terminated by `# EOF`.
  const std::size_t cut = transcript.find("# EOF");
  ASSERT_NE(cut, std::string::npos);
  const std::string first = transcript.substr(0, cut + 5);
  const std::string second = transcript.substr(cut + 5);
  ASSERT_NE(second.find("# EOF"), std::string::npos);

  // The families promised by the protocol are present before any request.
  for (const char* needle :
       {"# TYPE spiv_serve_requests_total counter",
        "# TYPE spiv_pool_queue_depth gauge", "spiv_pool_jobs_executed_total",
        "spiv_store_memory_hits_total", "spiv_store_disk_hits_total",
        "spiv_store_misses_total",
        "spiv_stage_seconds_bucket{stage=\"synthesis\",le=\"+Inf\"}",
        "spiv_stage_seconds_bucket{stage=\"validation\",le=\"+Inf\"}"})
    EXPECT_NE(first.find(needle), std::string::npos) << needle;

  // Counters increase monotonically from the first scrape to the second.
  const double req0 = sample_value(first, "spiv_serve_requests_total");
  const double req1 = sample_value(second, "spiv_serve_requests_total");
  ASSERT_GE(req0, 0.0);
  EXPECT_EQ(req1, req0 + 1.0);
  EXPECT_GE(sample_value(second, "spiv_pool_jobs_executed_total"),
            sample_value(first, "spiv_pool_jobs_executed_total") + 1.0);
  EXPECT_GE(sample_value(second, "spiv_store_misses_total"),
            sample_value(first, "spiv_store_misses_total") + 1.0);
  // The idle pool's queue depth gauge reads zero again after the request.
  EXPECT_EQ(sample_value(second, "spiv_pool_queue_depth"), 0.0);
}

// ---------------------------------------------------------- request-key memo

TEST_F(ServiceTest, KeyMemoMissesWhenCaseBytesChangeUnderOnePath) {
  store::CertStore store{cache_path()};
  LiveSession live{store_options(&store)};
  const std::string path = (dir_ / "rewritten.spivcase").string();
  const std::string cmd = "verify " + path + " 0 eq-num - sylvester 10";
  fs::copy_file(case_path("size3"), path);
  const std::string first = live.run(cmd);
  EXPECT_NE(first.find("cache=miss"), std::string::npos) << first;
  EXPECT_NE(first.find("model=size3"), std::string::npos) << first;

  // Same path, new content: the memo is keyed on bytes, not on the name.
  fs::copy_file(case_path("size5"), path,
                fs::copy_options::overwrite_existing);
  const std::string second = live.run(cmd);
  EXPECT_NE(second.find("status=valid"), std::string::npos) << second;
  EXPECT_NE(second.find("cache=miss"), std::string::npos) << second;
  EXPECT_NE(second.find("model=size5"), std::string::npos) << second;
  EXPECT_NE(field_string(first, "key"), field_string(second, "key"));

  const std::string again = live.run(cmd);
  EXPECT_NE(again.find("cache=hit"), std::string::npos) << again;
  EXPECT_EQ(field_string(again, "key"), field_string(second, "key"));
}

TEST_F(ServiceTest, KeyMemoHitIsByteIdenticalAcrossPathsAndEngines) {
  store::CertStore store{cache_path()};
  const std::string copy = (dir_ / "copy.spivcase").string();
  fs::copy_file(case_path("size5"), copy);
  const std::string tail = " 1 modal - sylvester 10";
  std::string memo_path, memo_copy;
  {
    LiveSession live{store_options(&store)};
    const std::string cold = live.run("verify " + case_path("size5") + tail);
    ASSERT_NE(cold.find("cache=miss"), std::string::npos) << cold;
    const std::uint64_t hits0 = memo_hits();
    memo_path = live.run("verify " + case_path("size5") + tail);
    memo_copy = live.run("verify " + copy + tail);
    EXPECT_EQ(memo_hits(), hits0 + 2);
  }
  // A fresh Engine has an empty memo: its hit takes the full path.
  const std::string full = result_line(
      drive("verify " + case_path("size5") + tail + "\nquit\n", &store), 1);
  EXPECT_NE(full.find("cache=hit"), std::string::npos) << full;
  EXPECT_EQ(after_id(memo_path), after_id(full));
  EXPECT_EQ(after_id(memo_copy), after_id(full));
}

TEST_F(ServiceTest, KeyMemoHitFallsThroughToMissOnAnEmptiedStore) {
  store::CertStore warm{cache_path()};
  store::CertStore empty{(dir_ / "empty").string()};
  // Route the real handler (and its memo) to whichever store is current,
  // so the memo outlives the store that backed its entry.
  store::CertStore* current = &warm;
  ServeOptions options = store_options(&warm);
  options.handler = [inner = default_handler(), &current](
                        const Request& req, store::CertStore*, double ttl,
                        const CancelToken& token) {
    return inner(req, current, ttl, token);
  };
  LiveSession live{options};
  const std::string cmd = "verify " + case_path() + " 0 eq-num - sylvester 10";
  const std::string cold = live.run(cmd);
  ASSERT_NE(cold.find("cache=miss"), std::string::npos) << cold;

  current = &empty;
  const std::uint64_t hits0 = memo_hits();
  const std::string again = live.run(cmd);
  EXPECT_EQ(memo_hits(), hits0 + 1);  // the memo knew the key ...
  EXPECT_NE(again.find("status=valid"), std::string::npos) << again;
  EXPECT_NE(again.find("cache=miss"), std::string::npos) << again;  // ... the store did not
  EXPECT_EQ(field_string(again, "key"), field_string(cold, "key"));
  EXPECT_EQ(empty.stats().writes, 1u);
}

TEST_F(ServiceTest, KeyMemoReplaysARememberedSynthFailureAsNegHit) {
  // An unstable closed loop: LMIa synthesis is infeasible.
  model::BenchmarkModel bm;
  for (const auto& b : model::benchmark_family())
    if (b.name == "size3") bm = b;
  for (std::size_t i = 0; i < bm.plant.a.rows(); ++i) bm.plant.a(i, i) += 100.0;
  bm.name = "unstable3";
  {
    std::ofstream out{case_path("unstable3")};
    model::write_case(out, bm);
  }
  store::CertStore store{cache_path()};
  ServeOptions options = store_options(&store);
  options.negative_ttl_seconds = 60.0;
  const std::string cmd =
      "verify " + case_path("unstable3") + " 0 LMIa newton-ac sylvester 10";
  std::string memo_line;
  {
    LiveSession live{options};
    const std::string cold = live.run(cmd);
    ASSERT_NE(cold.find("status=synth-failed cache=miss"), std::string::npos)
        << cold;
    const std::uint64_t hits0 = memo_hits();
    memo_line = live.run(cmd);
    EXPECT_EQ(memo_hits(), hits0 + 1);
  }
  EXPECT_NE(memo_line.find("status=synth-failed cache=neg-hit"),
            std::string::npos)
      << memo_line;
  const std::string full =
      result_line(drive_with(options, cmd + "\nquit\n"), 1);
  EXPECT_EQ(after_id(memo_line), after_id(full));
  EXPECT_EQ(store.stats().negative_hits, 2u);
}

TEST_F(ServiceTest, KeyMemoNeverRemembersMalformedCasesOrBadModes) {
  store::CertStore store{cache_path()};
  const std::string bad = (dir_ / "bad.spivcase").string();
  {
    std::ofstream out{bad};
    out << "spiv-case v1\nname broken size 3 integer 0\nplant 3 x\n";
  }
  LiveSession live{store_options(&store)};
  const std::uint64_t hits0 = memo_hits();
  for (const std::string& cmd :
       {"verify " + bad + " 0 eq-num - sylvester 10",
        "verify " + case_path() + " 7 eq-num - sylvester 10"}) {
    const std::string first = live.run(cmd);
    const std::string second = live.run(cmd);
    EXPECT_NE(first.find("status=error"), std::string::npos) << first;
    EXPECT_EQ(after_id(first), after_id(second));
  }
  EXPECT_EQ(memo_hits(), hits0);
  EXPECT_EQ(store.stats().writes, 0u);
}

TEST_F(ServiceTest, KeyMemoKeysOnModeAndDigits) {
  // Every request field that enters the cache key must enter the memo's
  // request tuple too: same bytes, another mode or digit count, new key.
  store::CertStore store{cache_path()};
  LiveSession live{store_options(&store)};
  const std::string prefix = "verify " + case_path() + " ";
  const std::vector<std::string> tails = {"0 eq-num - sylvester 10",
                                          "0 eq-num - sylvester 12",
                                          "1 eq-num - sylvester 10"};
  std::vector<std::string> keys;
  for (const std::string& tail : tails) {
    const std::string line = live.run(prefix + tail);
    EXPECT_NE(line.find("cache=miss"), std::string::npos) << line;
    keys.push_back(field_string(line, "key"));
  }
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[0], keys[2]);
  for (std::size_t i = 0; i < tails.size(); ++i) {
    const std::string line = live.run(prefix + tails[i]);
    EXPECT_NE(line.find("cache=hit"), std::string::npos) << line;
    EXPECT_EQ(field_string(line, "key"), keys[i]);
  }
}

TEST_F(ServiceTest, KeyMemoServesManySessionsAtOnce) {
  // Memo hits from many sessions on one Engine at the same time: the
  // memo's lock is what keeps them apart (run under the tsan preset).
  store::CertStore store{cache_path()};
  ServeOptions options = store_options(&store);
  options.jobs = 4;
  Engine engine{options};
  std::mutex mutex;
  std::vector<std::string> lines;
  const auto sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  };
  const std::vector<std::string> cmds = {
      "verify " + case_path("size3") + " 0 eq-num - sylvester 10",
      "verify " + case_path("size5") + " 1 modal - sylvester 10"};
  {
    Session warm{engine, sink};
    for (const std::string& cmd : cmds) (void)warm.handle_line(cmd);
    engine.wait_idle();
  }
  ASSERT_EQ(lines.size(), 4u);  // two `queued`, two `result`
  std::vector<std::string> keys;
  for (const std::string& line : lines)
    if (line.rfind("result ", 0) == 0) {
      ASSERT_NE(line.find("cache=miss"), std::string::npos) << line;
      keys.push_back(field_string(line, "key"));
    }
  lines.clear();

  constexpr int kSessions = 8;
  constexpr int kRequests = 25;
  const std::uint64_t hits0 = memo_hits();
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s)
    threads.emplace_back([&, s] {
      Session session{engine, sink};
      for (int r = 0; r < kRequests; ++r)
        (void)session.handle_line(cmds[(s + r) % cmds.size()]);
    });
  for (auto& t : threads) t.join();
  engine.wait_idle();

  EXPECT_EQ(memo_hits(), hits0 + kSessions * kRequests);
  std::size_t results = 0;
  for (const std::string& line : lines) {
    if (line.rfind("result ", 0) != 0) continue;
    ++results;
    EXPECT_NE(line.find("cache=hit"), std::string::npos) << line;
    const std::string key = field_string(line, "key");
    EXPECT_TRUE(key == keys[0] || key == keys[1]) << line;
  }
  EXPECT_EQ(results, static_cast<std::size_t>(kSessions * kRequests));
}

// ------------------------------------------------ warm hits answered in line

TEST_F(ServiceTest, FifoCaseFileIsAnErrorInsteadOfAHang) {
  // A FIFO named as a case file used to block open(2) forever: the request
  // never answered and the drain never returned.  Both the pool job (no
  // store) and the transport thread's warm probe (store) must refuse it.
  const std::string fifo = (dir_ / "case.fifo").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  store::CertStore store{cache_path()};
  for (store::CertStore* s : {static_cast<store::CertStore*>(nullptr),
                              &store}) {
    auto transcript = std::async(std::launch::async, [&] {
      return drive("verify " + fifo + " 0 eq-num - sylvester 10\nquit\n", s);
    });
    const bool answered = transcript.wait_for(std::chrono::seconds(2)) ==
                          std::future_status::ready;
    if (!answered) {
      // Release a reader stuck in open(2), so the test fails instead of
      // hanging: a writer that comes and goes makes the read see EOF.
      const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) ::close(fd);
    }
    const std::string line = result_line(transcript.get(), 1);
    EXPECT_TRUE(answered) << "store " << (s ? "on" : "off");
    EXPECT_NE(line.find("status=error"), std::string::npos) << line;
    EXPECT_NE(line.find("msg=cannot open case file " + fifo), std::string::npos)
        << line;
  }
}

TEST_F(ServiceTest, WarmHitIsAnsweredInLineWithoutAPoolJob) {
  store::CertStore store{cache_path()};
  Engine engine{store_options(&store)};
  std::mutex mutex;
  std::vector<std::string> lines;
  Session session{engine, [&](const std::string& line) {
                    std::lock_guard<std::mutex> lock(mutex);
                    lines.push_back(line);
                  }};
  const std::string cmd = "verify " + case_path() + " 0 eq-num - sylvester 10";
  (void)session.handle_line(cmd);
  engine.wait_idle();
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_NE(lines[1].find("cache=miss"), std::string::npos) << lines[1];
  lines.clear();

  const std::uint64_t jobs0 = jobs_executed();
  const std::uint64_t hits0 = memo_hits();
  (void)session.handle_line(cmd);
  // Answered before handle_line returned, in order, with nothing pending.
  EXPECT_EQ(session.pending(), 0u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "queued id=2");
  EXPECT_EQ(lines[1].rfind("result id=2 status=valid cache=hit ", 0), 0u)
      << lines[1];
  engine.wait_idle();
  EXPECT_EQ(jobs_executed(), jobs0);
  EXPECT_EQ(memo_hits(), hits0 + 1);
  EXPECT_EQ(store.stats().memory_hits, 1u);
}

TEST_F(ServiceTest, InLineHitIsByteIdenticalToThePoolServedHit) {
  store::CertStore store{cache_path()};
  const std::vector<std::string> cmds = {
      "verify " + case_path("size3") + " 0 eq-num - sylvester 10",
      "verify " + case_path("size5") + " 1 modal - sylvester 10",
      "verify " + case_path("size3") + " 1 LMIa - sylvester 10 5"};
  std::vector<std::string> in_line;
  {
    LiveSession live{store_options(&store)};
    for (const std::string& cmd : cmds) (void)live.run(cmd);  // cold
    const std::uint64_t jobs0 = jobs_executed();
    for (const std::string& cmd : cmds) in_line.push_back(live.run(cmd));
    EXPECT_EQ(jobs_executed(), jobs0);
  }
  // The same hits through an injected wrapper around default_handler():
  // first its full path (empty memo), then its memo, both on the pool.
  LiveSession pooled{pool_served(store_options(&store))};
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const std::uint64_t jobs0 = jobs_executed();
    const std::string full = pooled.run(cmds[i]);
    const std::string memo = pooled.run(cmds[i]);
    EXPECT_EQ(jobs_executed(), jobs0 + 2);
    EXPECT_NE(in_line[i].find("cache=hit"), std::string::npos) << in_line[i];
    EXPECT_EQ(after_id(in_line[i]), after_id(full));
    EXPECT_EQ(after_id(in_line[i]), after_id(memo));
  }
}

TEST_F(ServiceTest, MemoHitHeldOnlyOnDiskIsServedByThePool) {
  // The Engine keeps its memo while the store object is replaced by a
  // fresh one over the same directory: the certificate is then on disk
  // only, and the transport thread never reads the disk tier.
  std::optional<store::CertStore> store;
  store.emplace(cache_path());
  Engine engine{store_options(&*store)};
  std::mutex mutex;
  std::vector<std::string> lines;
  Session session{engine, [&](const std::string& line) {
                    std::lock_guard<std::mutex> lock(mutex);
                    lines.push_back(line);
                  }};
  const std::string cmd = "verify " + case_path() + " 0 eq-num - sylvester 10";
  (void)session.handle_line(cmd);
  engine.wait_idle();
  store.reset();
  store.emplace(cache_path());

  const std::uint64_t jobs0 = jobs_executed();
  const std::uint64_t hits0 = memo_hits();
  (void)session.handle_line(cmd);
  engine.wait_idle();
  std::string line = lines.back();
  EXPECT_EQ(line.rfind("result id=2 status=valid cache=hit ", 0), 0u) << line;
  EXPECT_EQ(jobs_executed(), jobs0 + 1);
  EXPECT_EQ(memo_hits(), hits0 + 1);
  store::StoreStats s = store->stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.memory_hits, 0u);
  EXPECT_EQ(s.misses, 0u);

  // The disk hit warmed the memory tier: the repeat is answered in line.
  (void)session.handle_line(cmd);
  engine.wait_idle();
  EXPECT_EQ(after_id(lines.back()), after_id(line));
  EXPECT_EQ(jobs_executed(), jobs0 + 1);
  s = store->stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.memory_hits, 1u);
}

TEST_F(ServiceTest, InLineStreamCountsLikeThePoolServedStream) {
  // One request stream, served once with warm hits answered in line and
  // once with every request on the pool: the transcripts, the `stats`
  // lines and every store, verify and stage counter agree; only the pool's
  // job count differs, by the number of warm hits.
  const std::string size3 =
      " " + case_path("size3") + " 0 eq-num - sylvester 10";
  const std::string size5 =
      " " + case_path("size5") + " 1 modal - sylvester 10";
  const std::string script =
      "verify" + size3 + "\nverify" + size5 + "\nwait\n" +
      "verify" + size3 + "\nverify" + size3 + "\nverify" + size5 + "\n" +
      "batch-verify 2\n" + size3.substr(1) + "\n" + size5.substr(1) + "\n" +
      "verify /nonexistent/case 0 eq-num - sylvester 10\n" +
      "wait\nstats\nquit\n";
  constexpr std::uint64_t kWarmHits = 5;
  const std::vector<std::string> names = {
      "spiv_serve_requests_total",
      "spiv_serve_errors_total",
      "spiv_serve_key_memo_hits_total",
      "spiv_serve_request_seconds_count",
      "spiv_store_memory_hits_total",
      "spiv_store_disk_hits_total",
      "spiv_store_misses_total",
      "spiv_store_writes_total",
      "spiv_verify_requests_total",
      "spiv_verify_outcomes_total{status=\"valid\"}",
      "spiv_stage_seconds_count{stage=\"case-load\"}",
      "spiv_stage_seconds_count{stage=\"close-loop\"}",
      "spiv_stage_seconds_count{stage=\"store-lookup\"}",
      "spiv_stage_seconds_count{stage=\"store-insert\"}",
      "spiv_pool_jobs_executed_total"};
  struct Run {
    std::string transcript;
    std::map<std::string, double> delta;
  };
  const auto serve_stream = [&](const ServeOptions& options) {
    Run run;
    const std::string before = obs::Registry::global().expose();
    run.transcript = drive_with(options, script);
    const std::string after = obs::Registry::global().expose();
    for (const std::string& name : names)  // a series not yet created reads 0
      run.delta[name] = std::max(0.0, sample_value(after, name)) -
                        std::max(0.0, sample_value(before, name));
    return run;
  };
  store::CertStore in_line_store{(dir_ / "in-line").string()};
  store::CertStore pooled_store{(dir_ / "pooled").string()};
  const Run in_line = serve_stream(store_options(&in_line_store));
  const Run pooled = serve_stream(pool_served(store_options(&pooled_store)));

  // Two stores computed the certificates: only their timings differ.
  const auto untimed = [](const std::string& line) {
    return after_id(line).substr(0, after_id(line).find(" synth_seconds="));
  };
  for (std::size_t id = 1; id <= 8; ++id)
    EXPECT_EQ(untimed(result_line(in_line.transcript, id)),
              untimed(result_line(pooled.transcript, id)))
        << "id " << id;
  const auto stats_line = [](const std::string& transcript) {
    return transcript.substr(transcript.find("stats jobs="));
  };
  EXPECT_EQ(stats_line(in_line.transcript), stats_line(pooled.transcript));
  EXPECT_NE(in_line.transcript.find("memory_hits=5 disk_hits=0 misses=2"),
            std::string::npos)
      << in_line.transcript;
  EXPECT_NE(in_line.transcript.find("batch-done ids=6-7 ok=2 failed=0 shed=0"),
            std::string::npos)
      << in_line.transcript;
  for (const std::string& name : names) {
    const double expected =
        pooled.delta.at(name) -
        (name == "spiv_pool_jobs_executed_total" ? kWarmHits : 0);
    EXPECT_EQ(in_line.delta.at(name), expected) << name;
  }
  EXPECT_EQ(in_line.delta.at("spiv_serve_key_memo_hits_total"), kWarmHits);
}

}  // namespace
}  // namespace spiv::service
