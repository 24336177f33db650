#include "lyapunov/extensions.hpp"

#include <chrono>
#include <cmath>
#include <random>

#include "numeric/eigen.hpp"
#include "sdp/lyapunov_lmi.hpp"
#include "sim/integrator.hpp"
#include "smt/charpoly.hpp"
#include "smt/validate.hpp"

namespace spiv::lyap {

using numeric::Matrix;
using numeric::Vector;

std::optional<Candidate> synthesize_common(
    const std::vector<Matrix>& mode_matrices, const SynthesisOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const sdp::LmiProblem problem = sdp::make_lyapunov_lmi(
      mode_matrices, {options.alpha, options.nu, options.kappa});

  sdp::LmiOptions lmi_options;
  lmi_options.deadline = options.deadline;
  auto sol = sdp::solve_lmi(problem, options.backend, lmi_options);
  if (!sol.feasible) return std::nullopt;
  Candidate c;
  c.method = Method::Lmi;
  c.p = sdp::unvech_double(sol.p, mode_matrices.front().rows());
  c.synth_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return c;
}

bool validate_common(const std::vector<Matrix>& mode_matrices, const Matrix& p,
                     int digits, const Deadline& deadline) {
  smt::CheckOptions options;
  options.deadline = deadline;
  for (const Matrix& a : mode_matrices) {
    auto v = smt::validate_lyapunov(a, p, smt::Engine::Sylvester, digits,
                                    options);
    if (!v.valid()) return false;
  }
  return true;
}

ExponentialCertificate exponential_certificate(const Matrix& a,
                                               const Matrix& p, int digits,
                                               double tolerance,
                                               const Deadline& deadline) {
  using exact::RatMatrix;
  using exact::Rational;
  const RatMatrix a_exact = smt::rationalize(a, 0);
  const RatMatrix p_exact = smt::rationalize(p, digits).symmetrized();
  const RatMatrix s =
      -(a_exact.transposed() * p_exact + p_exact * a_exact).symmetrized();

  // Exact check: S - alpha P >= 0 (PSD via the characteristic polynomial).
  auto holds = [&](const Rational& alpha) {
    RatMatrix m = s - p_exact * alpha;
    return smt::all_roots_nonnegative(
        smt::characteristic_polynomial_faddeev(m, deadline));
  };

  ExponentialCertificate cert;
  cert.settling_time = std::numeric_limits<double>::infinity();
  if (!holds(Rational{})) return cert;  // not even a plain Lyapunov function

  // Numeric estimate of alpha* = lambda_min(S, P) as the bracket seed.
  double alpha_star = 0.0;
  {
    auto chol = p.symmetrized().cholesky();
    if (chol) {
      // L^-1 S L^-T via two triangular solves on the double twins.
      Matrix s_num = -(a.transposed() * p + p * a).symmetrized();
      const Matrix& l = *chol;
      const std::size_t n = p.rows();
      // X = L^-1 S: forward substitution column-wise.
      Matrix x{n, n};
      for (std::size_t col = 0; col < n; ++col)
        for (std::size_t i = 0; i < n; ++i) {
          double acc = s_num(i, col);
          for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * x(k, col);
          x(i, col) = acc / l(i, i);
        }
      // Y = X L^-T  <=>  Y L^T = X: forward substitution on rows.
      Matrix y{n, n};
      for (std::size_t row = 0; row < n; ++row)
        for (std::size_t j = 0; j < n; ++j) {
          double acc = x(row, j);
          for (std::size_t k = 0; k < j; ++k) acc -= y(row, k) * l(j, k);
          y(row, j) = acc / l(j, j);
        }
      alpha_star = numeric::symmetric_eigen(y.symmetrized()).values.front();
    }
  }
  if (alpha_star <= 0.0) alpha_star = 1.0;

  // Exact bisection inside [0, hi], growing hi if the numeric seed was shy.
  Rational lo{};
  Rational hi = Rational::from_double_rounded(alpha_star * 1.05, 6);
  if (holds(hi)) {
    for (int grow = 0; grow < 8 && holds(hi * Rational{2}); ++grow)
      hi *= Rational{2};
    lo = hi;
    hi *= Rational{2};
  }
  const Rational tol = Rational::from_double_rounded(
      std::max(tolerance * alpha_star, 1e-12), 3);
  while (hi - lo > tol) {
    deadline.check();
    Rational mid = (lo + hi) * Rational{1, 2};
    if (holds(mid))
      lo = mid;
    else
      hi = mid;
  }
  cert.alpha = lo.to_double();
  cert.valid = cert.alpha > 0.0;
  cert.settling_time =
      cert.valid ? std::log(1e6) / cert.alpha
                 : std::numeric_limits<double>::infinity();
  return cert;
}

RegionStabilityReport check_region_stability(const model::PwaSystem& system,
                                             const Vector& r, double amplitude,
                                             double radius, int samples,
                                             double t_end, unsigned seed) {
  RegionStabilityReport report;
  report.samples = samples;
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> box{-amplitude, amplitude};
  std::vector<Vector> equilibria;
  for (std::size_t i = 0; i < system.num_modes(); ++i)
    equilibria.push_back(system.mode(i).equilibrium(r));

  for (int s = 0; s < samples; ++s) {
    Vector w0(system.dim());
    for (auto& v : w0) v = box(rng);
    sim::SimOptions options;
    options.t_end = t_end;
    options.record_interval = t_end / 50.0;
    sim::Trajectory traj = sim::simulate(system, r, w0, options);
    report.max_switches = std::max(report.max_switches, traj.switches.size());
    if (traj.step_failed) continue;
    // Trapped: the trailing 20% of recorded points are within `radius` of
    // the then-active mode's equilibrium.
    bool trapped = true;
    const double t_tail = 0.8 * traj.points.back().t;
    for (const auto& pt : traj.points) {
      if (pt.t < t_tail) continue;
      double dist2 = 0.0;
      for (std::size_t i = 0; i < pt.w.size(); ++i) {
        const double d = pt.w[i] - equilibria[pt.mode][i];
        dist2 += d * d;
      }
      if (std::sqrt(dist2) > radius) {
        trapped = false;
        break;
      }
    }
    if (trapped) ++report.trapped;
  }
  return report;
}

}  // namespace spiv::lyap
