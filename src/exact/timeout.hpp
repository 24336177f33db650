// spiv — cooperative deadlines and cancellation for long-running
// exact/symbolic computations.
//
// The paper runs every synthesis/validation job under a wall-clock budget
// (2 h in their cluster setup); the exact Lyapunov solve (eq-smt) times out
// at plant sizes 15 and 18.  We reproduce that behaviour with a cooperative
// Deadline checked inside the expensive inner loops.
//
// A Deadline can additionally carry a CancelToken: a shared flag flipped by
// another thread (the parallel experiment harness, see core/parallel.hpp)
// that expires the deadline immediately.  Checking the flag is a relaxed
// atomic load, so kernels can afford to poll it in their innermost loops —
// a cancelled job stops burning CPU within a few arithmetic operations
// instead of running to the next coarse phase boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

namespace spiv {

/// Thrown by deadline-aware algorithms when the budget is exhausted.
class TimeoutError : public std::runtime_error {
 public:
  TimeoutError() : std::runtime_error("computation exceeded its deadline") {}
};

/// Shared cancellation flag.  Copies observe the same flag; cancel() makes
/// every Deadline bound to this token expire immediately.  All operations
/// are thread-safe.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class Deadline;
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// `now + span` on the steady clock, saturated to time_point::max() when the
/// sum is not representable: an unchecked duration_cast of a huge span
/// overflows into a *past* time point.
[[nodiscard]] inline std::chrono::steady_clock::time_point saturating_add(
    std::chrono::steady_clock::time_point now,
    std::chrono::duration<double> span) {
  using Clock = std::chrono::steady_clock;
  const std::chrono::duration<double> headroom =
      std::chrono::duration<double>(Clock::time_point::max() - now);
  return span >= headroom
             ? Clock::time_point::max()
             : now + std::chrono::duration_cast<Clock::duration>(span);
}

/// A wall-clock budget, optionally bound to a CancelToken.
/// Default-constructed deadlines never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() = default;

  /// Expires `budget` from now.  Budgets beyond the clock's representable
  /// range saturate to "effectively never" — an unchecked duration_cast
  /// would overflow into a *past* expiry and time every request out
  /// instantly (e.g. `spiv-serve --timeout 1e18`).
  explicit Deadline(std::chrono::duration<double> budget)
      : expiry_(saturating_add(Clock::now(), budget)) {}

  [[nodiscard]] static Deadline after_seconds(double s) {
    return Deadline{std::chrono::duration<double>(s)};
  }

  /// Expires `s` seconds from now or as soon as `token` is cancelled,
  /// whichever comes first.
  [[nodiscard]] static Deadline after_seconds(double s,
                                              const CancelToken& token) {
    Deadline d = after_seconds(s);
    d.cancel_ = token.flag_;
    return d;
  }

  /// A copy of this deadline that additionally observes `token`.
  [[nodiscard]] Deadline with_token(const CancelToken& token) const {
    Deadline d = *this;
    d.cancel_ = token.flag_;
    return d;
  }

  [[nodiscard]] bool expired() const {
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) return true;
    return expiry_ && Clock::now() > *expiry_;
  }

  /// Throws TimeoutError when expired.
  void check() const {
    if (expired()) throw TimeoutError{};
  }

 private:
  std::optional<Clock::time_point> expiry_;
  std::shared_ptr<const std::atomic<bool>> cancel_;
};

}  // namespace spiv
