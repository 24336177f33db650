// spiv::sdp — LMI formulations for quadratic Lyapunov function synthesis
// (paper §III-E(c), methods LMI / LMIa / LMIa+).
//
// Decision variables are the n(n+1)/2 distinct entries of the symmetric P
// in vech order (matching spiv::exact::vech_index).  All three problems
// include the normalization P < kappa*I, which bounds the feasible cone so
// the analytic center exists.
#pragma once

#include "numeric/matrix.hpp"
#include "sdp/lmi.hpp"

namespace spiv::sdp {

struct LyapunovLmiConfig {
  /// Decay-rate parameter of LMIa / LMIa+ (paper eq. (10)); must satisfy
  /// alpha/2 < |spectral abscissa of A| for feasibility.
  double alpha = 0.0;
  /// Eigenvalue floor of LMIa+ (constraint P - nu*I > 0).
  double nu = 0.0;
  /// Normalization P < kappa*I.
  double kappa = 1.0;
};

/// Build the LMI feasibility problem for A:
///   P > 0 (or P > nu*I when nu > 0),   kappa*I - P > 0,
///   -(A^T P + P A) - alpha*P > 0.
/// The pencils are factored (see MatrixPencil): the P blocks over D = I,
/// the Lie block over D = (A + alpha/2 I)^T.
[[nodiscard]] LmiProblem make_lyapunov_lmi(const numeric::Matrix& a,
                                           const LyapunovLmiConfig& config);

/// Symmetric basis matrix E_k of the vech parameterization (1 on the
/// diagonal entry, or 1 at both (i,j) and (j,i)).
[[nodiscard]] numeric::Matrix vech_basis_matrix(std::size_t k, std::size_t n);

/// Reassemble P from the solved variable vector.
[[nodiscard]] numeric::Matrix unvech_double(const numeric::Vector& p,
                                            std::size_t n);

}  // namespace spiv::sdp
