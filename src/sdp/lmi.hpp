// spiv::sdp — linear matrix inequality (LMI) feasibility solving.
//
// The paper synthesizes Lyapunov candidates by solving LMI problems
// (paper §III-E(c)) through Picos with three backend SDP solvers (CVXOPT,
// Mosek, SMCP).  We provide the same architecture: one modeling layer
// (affine symmetric matrix pencils) and three backends of genuinely
// different algorithmic character:
//
//  * NewtonAnalyticCenter — phase-I barrier/Newton path following to a
//    well-centered strictly feasible point (CVXOPT-like: robust, medium
//    speed);
//  * FastInteriorPoint    — the same Newton machinery with an aggressive
//    step/termination schedule (Mosek-like: fastest, and — like the
//    paper's Mosek runs on LMIa+ at size 18 — occasionally returns
//    slightly infeasible points that later fail exact validation);
//  * ShortStepBarrier     — the textbook short-step path-following
//    variant: conservative damped Newton steps and a slow barrier
//    schedule (SMCP-like: provably convergent but one to two orders of
//    magnitude slower, mirroring the paper's consistently slowest
//    backend).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exact/timeout.hpp"
#include "numeric/matrix.hpp"

namespace spiv::sdp {

/// Affine symmetric-matrix-valued function F(p) = F0 + sum_k p_k Fk.
/// All matrices must be symmetric and share one dimension.
///
/// Each coefficient is stored once, sparse: its nonzeros as row-major
/// (row, col, value) triplets, exact zeros skipped, plus the sorted set of
/// columns that hold a nonzero.  The Lyapunov pencils are mostly zeros
/// (±E_k holds 2 entries, the Lie-block coefficients only rows and
/// columns p, q), and the barrier's Newton assembly follows that pattern.
class MatrixPencil {
 public:
  struct Entry {
    std::uint32_t row;
    std::uint32_t col;
    double value;
  };

  MatrixPencil(numeric::Matrix f0, std::vector<numeric::Matrix> coeffs);

  [[nodiscard]] std::size_t dim() const { return f0_.rows(); }
  [[nodiscard]] std::size_t num_vars() const { return entry_start_.size() - 1; }
  [[nodiscard]] const numeric::Matrix& constant() const { return f0_; }
  /// Nonzeros of coefficient k in row-major order.
  [[nodiscard]] std::span<const Entry> entries(std::size_t k) const {
    return {entries_.data() + entry_start_[k],
            entries_.data() + entry_start_[k + 1]};
  }
  /// Ascending columns of coefficient k that hold a nonzero.
  [[nodiscard]] std::span<const std::uint32_t> columns(std::size_t k) const {
    return {cols_.data() + col_start_[k], cols_.data() + col_start_[k + 1]};
  }

  [[nodiscard]] numeric::Matrix evaluate(const numeric::Vector& p) const;

 private:
  numeric::Matrix f0_;
  std::vector<Entry> entries_;       ///< every coefficient's triplets
  std::vector<std::uint32_t> cols_;  ///< every coefficient's columns
  /// Coefficient k owns entries_[entry_start_[k], entry_start_[k + 1]) and
  /// cols_[col_start_[k], col_start_[k + 1]).
  std::vector<std::size_t> entry_start_;
  std::vector<std::size_t> col_start_;
};

/// Feasibility problem: find p with F_j(p) > 0 (strictly) for all j.
struct LmiProblem {
  std::size_t num_vars = 0;
  std::vector<MatrixPencil> constraints;

  void validate() const;
  /// Smallest eigenvalue over all constraint blocks at p.
  [[nodiscard]] double min_eigenvalue(const numeric::Vector& p) const;
};

enum class Backend {
  NewtonAnalyticCenter,
  FastInteriorPoint,
  ShortStepBarrier,
};

[[nodiscard]] std::string to_string(Backend b);
/// Inverse of to_string ("newton-ac", ...); nullopt for unknown names.
[[nodiscard]] std::optional<Backend> backend_from_string(const std::string& name);

struct LmiOptions {
  /// Stop as soon as every block's min eigenvalue exceeds this.
  double target_margin = 1e-6;
  int max_iterations = 400;
  Deadline deadline{};
};

struct LmiSolution {
  bool feasible = false;
  numeric::Vector p;
  double achieved_margin = 0.0;  ///< min eigenvalue over blocks at p
  int iterations = 0;
  double seconds = 0.0;
};

/// Solve the feasibility problem with the chosen backend.
/// Throws TimeoutError when the deadline expires.
[[nodiscard]] LmiSolution solve_lmi(const LmiProblem& problem, Backend backend,
                                    const LmiOptions& options = {});

/// Stepping style of the shared barrier machinery (one per backend).
enum class BarrierMode { Robust, Aggressive, ShortStep };

// Internal entry point; exposed for targeted testing.
[[nodiscard]] LmiSolution solve_lmi_barrier(const LmiProblem& problem,
                                            const LmiOptions& options,
                                            BarrierMode mode);

}  // namespace spiv::sdp
