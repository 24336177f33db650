// spiv::lyap — synthesis of candidate quadratic Lyapunov functions for a
// single operating mode (paper §III-E and §VI-B1).
//
// Six methods, exactly the paper's palette:
//   eq-smt — exact (symbolic) solution of A^T P + P A + I = 0 over the
//            rationals.  Complete but expensive; times out at the largest
//            sizes (reproducing Table I's "TO" rows).
//   eq-num — Bartels–Stewart (python-control style).
//   modal  — P = M^{-1 dagger} M^{-1} from a modal matrix of A (eq. (8)).
//   LMI    — SDP feasibility P > 0, A^T P + P A < 0 (eq. (9)).
//   LMIa   — adds the decay-rate term alpha*P (eq. (10)).
//   LMIa+  — additionally pins eigenvalues from below: P - nu*I > 0.
// The LMI methods accept one of the three sdp backends.
#pragma once

#include <optional>
#include <string>

#include "exact/matrix.hpp"
#include "exact/timeout.hpp"
#include "numeric/matrix.hpp"
#include "sdp/lmi.hpp"

namespace spiv::lyap {

enum class Method { EqSmt, EqNum, Modal, Lmi, LmiAlpha, LmiAlphaPlus };

[[nodiscard]] std::string to_string(Method m);
/// Inverse of to_string ("eq-smt", "LMIa+", ...); nullopt for unknown names.
[[nodiscard]] std::optional<Method> method_from_string(const std::string& name);
[[nodiscard]] bool is_lmi_method(Method m);

struct SynthesisOptions {
  sdp::Backend backend = sdp::Backend::NewtonAnalyticCenter;  ///< LMI methods
  double alpha = 0.1;  ///< LMIa decay rate (must satisfy alpha/2 < |abscissa|)
  double nu = 1e-3;    ///< LMIa+ eigenvalue floor
  double kappa = 1.0;  ///< normalization P < kappa I for the LMI methods
  Deadline deadline{};
};

/// A synthesized candidate.  `p` always holds the double-precision matrix
/// handed to validation; eq-smt additionally keeps its exact solution.
struct Candidate {
  Method method = Method::EqNum;
  numeric::Matrix p;
  std::optional<exact::RatMatrix> exact_p;
  double synth_seconds = 0.0;
};

/// Synthesize a candidate Lyapunov function for wdot = A w.
/// Returns nullopt when the method fails (LMI infeasible, singular
/// spectrum, defective modal matrix).  Throws TimeoutError when the
/// deadline expires (the paper's "TO" entries).
[[nodiscard]] std::optional<Candidate> synthesize(
    const numeric::Matrix& a, Method method,
    const SynthesisOptions& options = {});

}  // namespace spiv::lyap
