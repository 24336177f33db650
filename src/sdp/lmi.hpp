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
//
// The pencils are factored into symmetric rank-2 terms (MatrixPencil), so
// the Newton system exploits the Schur-complement structure of Lyapunov
// LMIs (Vandenberghe & Balakrishnan, IEEE CSM 1997): O(1) work per Hessian
// pair after O(n^2 m) per block, and a Cholesky solve of the K x K system.
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
/// All matrices share one dimension n.
///
/// Each coefficient is stored factored, as a short sum of symmetric rank-2
/// terms w * (e_p d_j^T + d_j e_p^T) over a per-pencil dictionary D (n x m)
/// with columns d_j.  The Lyapunov pencils need one or two terms per
/// coefficient: ±E_k over D = I, and the Lie-block coefficients
/// -(A^T E_k + E_k A) - alpha E_k over D = (A + alpha/2 I)^T.  The barrier
/// then assembles its Newton system from S = sym(G^{-1}), S D and D^T S D
/// in O(1) per Hessian pair (see barrier_derivatives).
class MatrixPencil {
 public:
  /// One term w * (e_p d_j^T + d_j e_p^T), d_j = column j of the dictionary.
  struct Term {
    std::uint32_t p;
    std::uint32_t j;
    double w;
  };

  /// Dense symmetric coefficients, mapped onto D = I: one term per nonzero
  /// of each coefficient's upper triangle (w = F(i, i) / 2 on the
  /// diagonal).  Throws std::invalid_argument on a shape mismatch or an
  /// asymmetric coefficient.
  MatrixPencil(numeric::Matrix f0, std::vector<numeric::Matrix> coeffs);
  /// Factored coefficients: Fk is the sum of terms[k] over `dictionary`
  /// (n x m).  Throws std::invalid_argument when a term's p is not below n
  /// or its j not below m.
  MatrixPencil(numeric::Matrix f0, numeric::Matrix dictionary,
               const std::vector<std::vector<Term>>& terms);

  [[nodiscard]] std::size_t dim() const { return f0_.rows(); }
  [[nodiscard]] std::size_t num_vars() const { return term_start_.size() - 1; }
  [[nodiscard]] const numeric::Matrix& constant() const { return f0_; }
  [[nodiscard]] const numeric::Matrix& dictionary() const { return d_; }
  /// True when the dictionary is exactly the n x n identity.
  [[nodiscard]] bool identity_dictionary() const { return identity_; }
  /// The terms of coefficient k.
  [[nodiscard]] std::span<const Term> terms(std::size_t k) const {
    return {terms_.data() + term_start_[k],
            terms_.data() + term_start_[k + 1]};
  }
  /// The terms of coefficients k, k + 1, ..., in order, and for each term
  /// the coefficient it belongs to.
  [[nodiscard]] std::span<const Term> terms_from(std::size_t k) const {
    return std::span{terms_}.subspan(term_start_[k]);
  }
  [[nodiscard]] std::span<const std::uint32_t> owners_from(
      std::size_t k) const {
    return std::span{owner_}.subspan(term_start_[k]);
  }

  [[nodiscard]] numeric::Matrix evaluate(const numeric::Vector& p) const;

 private:
  numeric::Matrix f0_;
  numeric::Matrix d_;
  bool identity_ = false;
  std::vector<Term> terms_;            ///< every coefficient's terms
  std::vector<std::uint32_t> owner_;  ///< the coefficient of each term
  /// Coefficient k owns terms_[term_start_[k], term_start_[k + 1]).
  std::vector<std::size_t> term_start_;
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

/// Gradient and Hessian of the barrier -sum_j log det(F_j(p) - t I) over
/// x = (p, t), the slack last.
struct BarrierDerivatives {
  numeric::Vector grad;
  numeric::Matrix hess;
};

// Internal entry points; exposed for targeted testing.
/// The barrier derivatives at (p, t); nullopt when a shifted block is
/// singular.
[[nodiscard]] std::optional<BarrierDerivatives> barrier_derivatives(
    const LmiProblem& problem, const numeric::Vector& p, double t);
[[nodiscard]] LmiSolution solve_lmi_barrier(const LmiProblem& problem,
                                            const LmiOptions& options,
                                            BarrierMode mode);

}  // namespace spiv::sdp
