#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <iostream>

#include "core/env.hpp"

namespace spiv::core {

namespace {

/// One stderr warning per process for an over-cap jobs request (the
/// malformed-value warning lives in core::env, next to the parse).
void warn_jobs_once(const std::string& message) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) std::cerr << "spiv: " << message << "\n";
}

/// Hardware thread count, never zero.
std::size_t hardware_jobs() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  return hw_raw > 0 ? hw_raw : 1;
}

/// Oversubscribing a work-stealing pool beyond a few threads per core only
/// adds contention; treat anything past 8x the hardware as a typo.
std::size_t jobs_cap() { return 8 * hardware_jobs(); }

}  // namespace

std::size_t resolve_jobs(std::size_t requested) {
  const std::size_t cap = jobs_cap();
  if (requested > 0) {
    if (requested <= cap) return requested;
    warn_jobs_once("requested " + std::to_string(requested) +
                   " jobs exceeds " + std::to_string(cap) +
                   " (8x hardware_concurrency); using " + std::to_string(cap));
    return cap;
  }
  // env::jobs() warns once on malformed values and reads as nullopt.
  if (const std::optional<std::size_t> v = env::jobs()) {
    if (*v <= cap) return *v;
    warn_jobs_once("SPIV_JOBS=" + std::to_string(*v) + " exceeds " +
                   std::to_string(cap) + " (8x hardware_concurrency); using " +
                   std::to_string(cap));
    return cap;
  }
  return hardware_jobs();
}

JobPool::JobPool(std::size_t threads)
    : queue_depth_(obs::Registry::global().gauge("spiv_pool_queue_depth")),
      jobs_executed_(
          obs::Registry::global().counter("spiv_pool_jobs_executed_total")),
      steals_(obs::Registry::global().counter("spiv_pool_steals_total")) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { run_worker(i); });
}

JobPool::~JobPool() {
  {
    std::lock_guard<std::mutex> lock(signal_mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void JobPool::submit(Job job) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(signal_mutex_);
    target = next_worker_;
    next_worker_ = (next_worker_ + 1) % workers_.size();
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->jobs.push_back(std::move(job));
  }
  queue_depth_.add(1);
  work_cv_.notify_one();
}

void JobPool::wait_idle() {
  std::unique_lock<std::mutex> lock(signal_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

bool JobPool::any_work() const {
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    if (!w->jobs.empty()) return true;
  }
  return false;
}

bool JobPool::try_pop(std::size_t self, Job& out) {
  // Own deque first (LIFO end for locality) ...
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.jobs.empty()) {
      out = std::move(w.jobs.back());
      w.jobs.pop_back();
      queue_depth_.sub(1);
      return true;
    }
  }
  // ... then steal from the front of the other deques (oldest job first,
  // which keeps stolen work close to submission order).
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& w = *workers_[(self + k) % n];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.jobs.empty()) {
      out = std::move(w.jobs.front());
      w.jobs.pop_front();
      queue_depth_.sub(1);
      steals_.add(1);
      return true;
    }
  }
  return false;
}

void JobPool::run_worker(std::size_t self) {
  for (;;) {
    Job job;
    if (!try_pop(self, job)) {
      std::unique_lock<std::mutex> lock(signal_mutex_);
      work_cv_.wait(lock, [this] { return stop_ || any_work(); });
      if (stop_ && !any_work()) return;
      continue;
    }
    job();
    jobs_executed_.add(1);
    bool idle;
    {
      std::lock_guard<std::mutex> lock(signal_mutex_);
      idle = --pending_ == 0;
    }
    if (idle) idle_cv_.notify_all();
  }
}

void for_each_job(
    std::size_t n, std::size_t jobs,
    const std::function<void(std::size_t, const CancelToken&)>& body) {
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || n <= 1) {
    const CancelToken token;
    for (std::size_t i = 0; i < n; ++i) body(i, token);
    return;
  }
  JobPool pool{std::min(jobs, n)};
  for (std::size_t i = 0; i < n; ++i)
    pool.submit([&body, &pool, i] { body(i, pool.token()); });
  pool.wait_idle();
}

void for_each_block(
    std::size_t n, std::size_t jobs,
    const std::function<void(std::size_t, std::size_t, const CancelToken&)>&
        body) {
  if (n == 0) return;
  jobs = resolve_jobs(jobs);
  const std::size_t chunk = (n + std::min(jobs, n) - 1) / std::min(jobs, n);
  const std::size_t blocks = (n + chunk - 1) / chunk;  // no empty tail block
  for_each_job(blocks, jobs,
               [&body, n, chunk](std::size_t b, const CancelToken& token) {
                 const std::size_t begin = b * chunk;
                 body(begin, std::min(n, begin + chunk), token);
               });
}

}  // namespace spiv::core
