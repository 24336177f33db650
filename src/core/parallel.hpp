// spiv::core — work-stealing job pool for the experiment harness.
//
// The paper's evaluation (§VI) is embarrassingly parallel: Table I is
// strategies x model variants x modes of independent synthesis jobs, Fig. 3
// is candidates x validator engines, Table II is models x modes x
// strategies.  JobPool runs those case lists across worker threads with
// per-worker deques and work stealing, so one long eq-smt solve no longer
// serializes the whole table behind it.
//
// Determinism contract: callers enumerate their case list up front, each
// job writes only its own pre-allocated slot, and results are merged on the
// calling thread in case-index order — so parallel output is identical to
// the serial harness for everything that is not a wall-clock measurement.
//
// Cancellation: the pool owns a CancelToken.  Jobs bind their per-job
// Deadline to it (Deadline::after_seconds(s, pool.token())), so cancel()
// preempts running kernels at their next innermost-loop poll.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "exact/timeout.hpp"
#include "obs/metrics.hpp"

namespace spiv::core {

/// Worker count to use: `requested` if nonzero, else $SPIV_JOBS, else
/// hardware_concurrency().  Always >= 1.  $SPIV_JOBS must pass
/// env::parse_positive (trailing junk rejects the value); both it and
/// explicit requests are capped at 8x hardware_concurrency().  Rejected or
/// clamped values warn once on stderr.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested = 0);

/// Fixed-size work-stealing thread pool.  Jobs must not throw (wrap the
/// body and record failures in the job's result slot instead).
class JobPool {
 public:
  using Job = std::function<void()>;

  explicit JobPool(std::size_t threads);
  ~JobPool();

  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  /// Enqueue a job (round-robin over the worker deques).
  void submit(Job job);

  /// Block until every submitted job has finished.
  void wait_idle();

  /// Flip the pool's CancelToken: deadlines bound to it expire immediately.
  void cancel_all() const { token_.cancel(); }

  [[nodiscard]] const CancelToken& token() const { return token_; }
  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<Job> jobs;
  };

  void run_worker(std::size_t self);
  bool try_pop(std::size_t self, Job& out);
  [[nodiscard]] bool any_work() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  mutable std::mutex signal_mutex_;
  std::condition_variable work_cv_;  ///< workers: new work or stop
  std::condition_variable idle_cv_;  ///< wait_idle: pending reached zero
  std::size_t pending_ = 0;          ///< submitted but not yet finished
  bool stop_ = false;
  std::size_t next_worker_ = 0;  ///< round-robin submission cursor
  CancelToken token_;
  // Pool observability (global registry, shared by every pool in the
  // process): resolved once here so the submit/pop path never locks it.
  obs::Gauge& queue_depth_;      ///< submitted, not yet popped by a worker
  obs::Counter& jobs_executed_;  ///< jobs run to completion
  obs::Counter& steals_;         ///< pops from another worker's deque
};

/// Run body(i, token) for every i in [0, n) on a JobPool with `jobs`
/// workers.  jobs <= 1 (after resolve_jobs) runs inline on the calling
/// thread with a fresh token, reproducing the serial harness exactly.
/// The body must not throw; each invocation should write only slot i of a
/// pre-sized result vector.
void for_each_job(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t, const CancelToken&)>& body);

/// Run body(begin, end, token) over a partition of [0, n) into at most
/// `jobs` contiguous near-equal blocks (block-cyclic would interleave
/// writes; contiguous blocks keep each worker on its own cache lines).
/// Used where per-item work is small and uniform — e.g. the per-entry CRT
/// folds of the multi-modular solver — so one pool job per item would
/// drown in submission overhead.  Same contract as for_each_job: jobs <= 1
/// runs inline serially, bodies must not throw, each block writes only its
/// own slots.
void for_each_block(
    std::size_t n, std::size_t jobs,
    const std::function<void(std::size_t, std::size_t, const CancelToken&)>&
        body);

}  // namespace spiv::core
