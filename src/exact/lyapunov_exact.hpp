// spiv::exact — exact (symbolic) solution of the continuous-time Lyapunov
// equation  A^T P + P A + Q = 0.
//
// This is the paper's `eq-smt` synthesis method: the equation is turned into
// a linear system over the n(n+1)/2 distinct entries of the symmetric P
// (the "vech" parameterization) and solved exactly by the multi-modular
// solver (exact/modular.hpp), with fraction-free Bareiss elimination as
// its fallback.  Budgets are enforced through the cooperative Deadline.
#pragma once

#include <optional>

#include "exact/matrix.hpp"
#include "exact/modular.hpp"
#include "exact/timeout.hpp"

namespace spiv::exact {

/// Index of entry (i, j), i >= j, in the vech (column-stacked lower
/// triangle) ordering of a symmetric n x n matrix.
[[nodiscard]] std::size_t vech_index(std::size_t i, std::size_t j,
                                     std::size_t n);

/// vech(M): stack the lower triangle of symmetric M column by column.
[[nodiscard]] std::vector<Rational> vech(const RatMatrix& m);

/// Inverse of vech for an n x n symmetric matrix.
[[nodiscard]] RatMatrix unvech(const std::vector<Rational>& v, std::size_t n);

/// The matrix of the linear map P -> A^T P + P A restricted to symmetric
/// matrices, in vech coordinates (size N x N with N = n(n+1)/2).
[[nodiscard]] RatMatrix lyapunov_operator_vech(const RatMatrix& a,
                                               const Deadline& deadline = {});

/// Solve A^T P + P A + Q = 0 exactly for symmetric P.
/// Q must be symmetric.  Returns nullopt when the Lyapunov operator is
/// singular (i.e. A and -A share an eigenvalue).  Throws TimeoutError when
/// the deadline expires mid-solve.  The default multi-modular path checks
/// its result exactly and falls back to Bareiss on any failure; `Bareiss`
/// skips straight to that fallback.
[[nodiscard]] std::optional<RatMatrix> solve_lyapunov_exact(
    const RatMatrix& a, const RatMatrix& q, const Deadline& deadline = {},
    ExactSolverStrategy strategy = ExactSolverStrategy::Modular);

/// Residual A^T P + P A + Q (all-zero iff P solves the equation).
[[nodiscard]] RatMatrix lyapunov_residual(const RatMatrix& a,
                                          const RatMatrix& p,
                                          const RatMatrix& q);

}  // namespace spiv::exact
