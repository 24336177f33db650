// spiv::lyap — extensions beyond the paper's §VI experiments, following
// its §VII future-work directions and the related-work palette (§II):
//
//  * common quadratic Lyapunov functions for the switched system
//    (Peleties–DeCarlo style [22]): one P certifying every mode's linear
//    dynamics simultaneously — stronger than the per-mode analysis, and a
//    complement to the failed piecewise-quadratic attempt of §VI-B2;
//  * exponential-stability certificates: the largest exactly-validated
//    decay rate alpha with Vdot <= -alpha V, and the settling-time bound
//    it implies (paper §III-E, eq. (6) and the remark below eq. (10));
//  * empirical region stability (Podelski–Wagner [23]): a sampling check
//    that all trajectories eventually enter and stay in a target ball.
#pragma once

#include <optional>

#include "lyapunov/synthesis.hpp"
#include "model/switched_pi.hpp"

namespace spiv::lyap {

/// Synthesize one P with P > 0 and A_i^T P + P A_i < 0 for every mode
/// matrix in `mode_matrices` (common quadratic Lyapunov function for the
/// switched *linear* dynamics) through sdp::make_lyapunov_lmi.  Returns
/// nullopt when the LMI is infeasible within the budget; throws
/// std::invalid_argument on an empty list, mismatched shapes or
/// kappa <= nu.
[[nodiscard]] std::optional<Candidate> synthesize_common(
    const std::vector<numeric::Matrix>& mode_matrices,
    const SynthesisOptions& options = {});

/// Exactly validate a common candidate against every mode.
[[nodiscard]] bool validate_common(
    const std::vector<numeric::Matrix>& mode_matrices,
    const numeric::Matrix& p, int digits = 10, const Deadline& deadline = {});

/// The largest decay rate alpha (up to `tolerance`, via bisection) such
/// that A^T P + P A + alpha P <= 0 holds *exactly* for the rounded
/// candidate.  Returns 0 when even alpha = 0 fails.
struct ExponentialCertificate {
  double alpha = 0.0;          ///< exactly validated decay rate
  double settling_time = 0.0;  ///< time to shrink V by 1e6, = ln(1e6)/alpha
  bool valid = false;          ///< alpha > 0 was certified
};
[[nodiscard]] ExponentialCertificate exponential_certificate(
    const numeric::Matrix& a, const numeric::Matrix& p, int digits = 10,
    double tolerance = 1e-3, const Deadline& deadline = {});

/// Empirical region stability: simulate `samples` trajectories from the
/// box [-amplitude, amplitude]^d and check each ends (and stays, for the
/// trailing 20% of its horizon) within `radius` of the final mode's
/// equilibrium.  Returns the number of trajectories that satisfy this.
struct RegionStabilityReport {
  int samples = 0;
  int trapped = 0;
  std::size_t max_switches = 0;
  [[nodiscard]] bool all_trapped() const { return trapped == samples; }
};
[[nodiscard]] RegionStabilityReport check_region_stability(
    const model::PwaSystem& system, const numeric::Vector& r, double amplitude,
    double radius, int samples = 16, double t_end = 300.0, unsigned seed = 7);

}  // namespace spiv::lyap
