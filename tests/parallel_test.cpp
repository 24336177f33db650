// Tests for the parallel experiment harness: SPIV_JOBS resolution, the
// work-stealing JobPool, the determinism contract of run_table1, and
// cooperative cancellation of the exact kernels.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/experiments.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/timeout.hpp"

namespace spiv::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// RAII guard so SPIV_JOBS changes cannot leak into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, saved_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string saved_;
};

TEST(ResolveJobs, ExplicitRequestWins) {
  ScopedEnv env{"SPIV_JOBS", "3"};
  EXPECT_EQ(resolve_jobs(5), 5u);
  EXPECT_EQ(resolve_jobs(1), 1u);
}

TEST(ResolveJobs, ReadsEnvironment) {
  ScopedEnv env{"SPIV_JOBS", "3"};
  EXPECT_EQ(resolve_jobs(), 3u);
}

TEST(ResolveJobs, FallsBackOnBadOrMissingEnv) {
  {
    ScopedEnv env{"SPIV_JOBS", nullptr};
    EXPECT_GE(resolve_jobs(), 1u);
  }
  {
    ScopedEnv env{"SPIV_JOBS", "0"};
    EXPECT_GE(resolve_jobs(), 1u);
  }
  {
    ScopedEnv env{"SPIV_JOBS", "not-a-number"};
    EXPECT_GE(resolve_jobs(), 1u);
  }
}

TEST(ResolveJobs, RejectsPartialParses) {
  // strtol used to stop at the first non-digit and hand back 4.
  const std::size_t fallback = [] {
    ScopedEnv env{"SPIV_JOBS", nullptr};
    return resolve_jobs();
  }();
  for (const char* bad : {"4abc", "2 2", "3.5", "+", "-7", "0x10"}) {
    ScopedEnv env{"SPIV_JOBS", bad};
    EXPECT_EQ(resolve_jobs(), fallback) << bad;
  }
}

TEST(ResolveJobs, CapsExplicitRequests) {
  // A huge explicit request (e.g. `--jobs -1` cast to size_t) must clamp to
  // the 8x-hardware cap instead of spawning that many threads.
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t cap = 8 * (hw_raw > 0 ? hw_raw : 1);
  EXPECT_EQ(resolve_jobs(cap), cap);
  EXPECT_EQ(resolve_jobs(cap + 1), cap);
  EXPECT_EQ(resolve_jobs(static_cast<std::size_t>(-1)), cap);
}

TEST(ResolveJobs, CapsAbsurdValues) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t cap = 8 * (hw_raw > 0 ? hw_raw : 1);
  {
    ScopedEnv env{"SPIV_JOBS", "1000000"};
    EXPECT_EQ(resolve_jobs(), cap);
  }
  {
    ScopedEnv env{"SPIV_JOBS", "99999999999999999999"};  // out of long range
    const std::size_t fallback = [] {
      ScopedEnv inner{"SPIV_JOBS", nullptr};
      return resolve_jobs();
    }();
    EXPECT_EQ(resolve_jobs(), fallback);
  }
  {
    // In-range values still pass through untouched.
    const std::string cap_str = std::to_string(cap);
    ScopedEnv env{"SPIV_JOBS", cap_str.c_str()};
    EXPECT_EQ(resolve_jobs(), cap);
  }
}

TEST(JobPool, RunsEveryJobAcrossThreads) {
  constexpr std::size_t kJobs = 200;
  std::vector<int> hits(kJobs, 0);
  std::atomic<int> done{0};
  {
    JobPool pool{4};
    EXPECT_EQ(pool.thread_count(), 4u);
    for (std::size_t i = 0; i < kJobs; ++i)
      pool.submit([&hits, &done, i] {
        hits[i] += 1;
        done.fetch_add(1, std::memory_order_relaxed);
      });
    pool.wait_idle();
    EXPECT_EQ(done.load(), static_cast<int>(kJobs));
  }
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(JobPool, WaitIdleCanBeReusedAfterMoreSubmissions) {
  JobPool pool{2};
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
  for (int i = 0; i < 10; ++i) pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 11);
}

TEST(ForEachJob, CoversEveryIndexOnceSerialAndParallel) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<int> hits(100, 0);
    for_each_job(hits.size(), jobs,
                 [&hits](std::size_t i, const CancelToken& token) {
                   EXPECT_FALSE(token.cancelled());
                   hits[i] += 1;
                 });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ForEachBlock, PartitionsTheRangeExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{7}, std::size_t{100}}) {
      std::vector<int> hits(n, 0);
      std::atomic<std::size_t> blocks{0};
      for_each_block(n, jobs,
                     [&](std::size_t begin, std::size_t end,
                         const CancelToken& token) {
                       EXPECT_FALSE(token.cancelled());
                       EXPECT_LT(begin, end);
                       blocks.fetch_add(1);
                       for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
                     });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " n=" << n << " i=" << i;
      EXPECT_LE(blocks.load(), jobs) << "jobs=" << jobs << " n=" << n;
      if (n > 0) {
        EXPECT_GE(blocks.load(), 1u);
      }
    }
  }
}

// ------------------------------------------------------------ determinism

ExperimentConfig size3_config(std::size_t jobs) {
  ExperimentConfig config;
  config.sizes = {3};
  config.synth_timeout_seconds = 20.0;
  config.validate_timeout_seconds = 20.0;
  config.jobs = jobs;
  return config;
}

// The tentpole's core guarantee: everything except wall-clock timings is
// bit-identical between the serial harness and a 4-worker pool.
TEST(ParallelDeterminism, Table1IdenticalAcrossJobCounts) {
  const Table1Result serial = run_table1(size3_config(1));
  const Table1Result parallel = run_table1(size3_config(4));

  ASSERT_EQ(serial.strategies.size(), parallel.strategies.size());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t s = 0; s < serial.cells.size(); ++s) {
    ASSERT_EQ(serial.cells[s].size(), parallel.cells[s].size())
        << serial.strategies[s].name();
    for (const auto& [size, cell] : serial.cells[s]) {
      auto it = parallel.cells[s].find(size);
      ASSERT_NE(it, parallel.cells[s].end());
      EXPECT_EQ(cell.cases, it->second.cases) << serial.strategies[s].name();
      EXPECT_EQ(cell.synthesized, it->second.synthesized)
          << serial.strategies[s].name();
      EXPECT_EQ(cell.valid, it->second.valid) << serial.strategies[s].name();
      EXPECT_EQ(cell.timeouts, it->second.timeouts)
          << serial.strategies[s].name();
    }
  }

  ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    const CandidateRecord& a = serial.candidates[i];
    const CandidateRecord& b = parallel.candidates[i];
    EXPECT_EQ(a.model_name, b.model_name) << i;
    EXPECT_EQ(a.size, b.size) << i;
    EXPECT_EQ(a.integer_model, b.integer_model) << i;
    EXPECT_EQ(a.mode, b.mode) << i;
    EXPECT_EQ(a.strategy.name(), b.strategy.name()) << i;
    // Bit-identical matrices: each job runs the same serial computation on
    // its own case, so scheduling cannot change a single double.
    EXPECT_EQ(a.a.data(), b.a.data()) << i;
    EXPECT_EQ(a.p.data(), b.p.data()) << i;
  }
}

// ----------------------------------------------------------- cancellation

// A dense well-conditioned rational matrix whose exact Lyapunov solve is
// deliberately slow (n=14 runs for tens of seconds unrestricted; the
// coefficient growth of exact elimination is the paper's point about
// eq-smt at sizes 15/18).
exact::RatMatrix slow_stable_matrix(std::size_t n) {
  exact::RatMatrix a{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = exact::Rational{static_cast<std::int64_t>(i * j + i + 1),
                                static_cast<std::int64_t>(i + 2 * j + 3)};
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) -= exact::Rational{static_cast<std::int64_t>(10 * n), 1};
  return a;
}

TEST(Cancellation, SlowExactSolveTimesOutWithinTwiceDeadline) {
  const exact::RatMatrix a = slow_stable_matrix(14);
  const exact::RatMatrix q = exact::RatMatrix::identity(14);
  const double budget = 0.5;
  const auto t0 = Clock::now();
  EXPECT_THROW(
      {
        auto p = exact::solve_lyapunov_exact(a, q,
                                             Deadline::after_seconds(budget));
        (void)p;
      },
      TimeoutError);
  const double elapsed = seconds_since(t0);
  EXPECT_GE(elapsed, budget * 0.5);  // it did run up to the deadline
  EXPECT_LE(elapsed, budget * 2.0)
      << "deadline polling is too coarse: " << elapsed << " s";
}

TEST(Cancellation, TokenCancelledFromAnotherThreadStopsSolve) {
  const exact::RatMatrix a = slow_stable_matrix(14);
  const exact::RatMatrix q = exact::RatMatrix::identity(14);
  CancelToken token;
  // No wall-clock budget at all: only the token can stop this solve.
  const Deadline deadline = Deadline{}.with_token(token);
  const auto t0 = Clock::now();
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    token.cancel();
  });
  EXPECT_THROW(
      {
        auto p = exact::solve_lyapunov_exact(a, q, deadline);
        (void)p;
      },
      TimeoutError);
  canceller.join();
  const double elapsed = seconds_since(t0);
  EXPECT_LE(elapsed, 2.0) << "cancel took " << elapsed
                          << " s to be observed";
}

TEST(Cancellation, PoolCancelAllPreemptsQueuedDeadlines) {
  JobPool pool{2};
  std::atomic<int> timeouts{0};
  for (int i = 0; i < 2; ++i)
    pool.submit([&pool, &timeouts] {
      const exact::RatMatrix a = slow_stable_matrix(14);
      const exact::RatMatrix q = exact::RatMatrix::identity(14);
      try {
        auto p = exact::solve_lyapunov_exact(
            a, q, Deadline::after_seconds(60.0, pool.token()));
        (void)p;
      } catch (const TimeoutError&) {
        timeouts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pool.cancel_all();
  pool.wait_idle();
  EXPECT_EQ(timeouts.load(), 2);
}

}  // namespace
}  // namespace spiv::core
