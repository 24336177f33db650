#include "robust/region.hpp"

#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>

#include "exact/matrix.hpp"
#include "numeric/eigen.hpp"
#include "smt/validate.hpp"

namespace spiv::robust {

using exact::RatMatrix;
using exact::Rational;
using numeric::Matrix;
using numeric::Vector;

namespace {

/// Exact geometric data of the mode, rationalized once.
struct ExactGeometry {
  RatMatrix p;       ///< candidate, rounded to `digits`
  RatMatrix p_inv;
  std::vector<Rational> g;   ///< surface normal (region: g.w + h > 0)
  Rational c0;               ///< surface offset in shifted coords (< 0)
  std::vector<Rational> q;   ///< gradient of the surface flow: A^T g
  // Scalars of the certificate algebra.
  Rational a;    ///< g^T P^-1 g
  Rational vstar;///< min V on the surface = c0^2 / a
  Rational t1;   ///< flow at the surface touch point
  Rational stilde;  ///< P-metric norm^2 of the surface-tangential flow grad
};

ExactGeometry make_exact_geometry(const model::PwaSystem& system,
                                  std::size_t mode_index, const Matrix& p,
                                  const Vector& r, int digits,
                                  const Deadline& deadline) {
  const model::PwaMode& mode = system.mode(mode_index);
  if (mode.region.size() != 1)
    throw std::invalid_argument(
        "synthesize_region: single-guard modes only");
  const std::size_t d = system.dim();

  ExactGeometry geo;
  geo.p = smt::rationalize(p, digits).symmetrized();
  auto inv = geo.p.inverse();
  if (!inv)
    throw std::invalid_argument("synthesize_region: candidate P singular");
  geo.p_inv = std::move(*inv);
  deadline.check();

  // Exact flow matrices and equilibrium.
  const RatMatrix a_exact = exact::rat_matrix_from_doubles(
      mode.a.data().data(), d, d, 0);
  const RatMatrix b_exact = exact::rat_matrix_from_doubles(
      mode.b.data().data(), d, mode.b.cols(), 0);
  std::vector<Rational> r_exact(r.size());
  for (std::size_t i = 0; i < r.size(); ++i)
    r_exact[i] = Rational::from_double_exact(r[i]);
  std::vector<Rational> drift = b_exact.apply(r_exact);
  for (auto& v : drift) v = -v;
  auto w_eq = a_exact.solve(drift);
  if (!w_eq)
    throw std::runtime_error("synthesize_region: singular mode matrix");
  deadline.check();

  const model::HalfSpace& hs = mode.region[0];
  geo.g.resize(d);
  for (std::size_t i = 0; i < d; ++i)
    geo.g[i] = Rational::from_double_exact(hs.g[i]);
  // s(w_eq) = g . w_eq + h must be positive (equilibrium inside region).
  Rational s_eq = Rational::from_double_exact(hs.h);
  for (std::size_t i = 0; i < d; ++i) s_eq += geo.g[i] * (*w_eq)[i];
  if (s_eq.sign() <= 0)
    throw std::runtime_error(
        "synthesize_region: equilibrium not strictly inside its region");
  geo.c0 = -s_eq;

  geo.q = a_exact.transposed().apply(geo.g);
  deadline.check();

  const std::vector<Rational> pg = geo.p_inv.apply(geo.g);
  const std::vector<Rational> pq = geo.p_inv.apply(geo.q);
  Rational gpg, qpg, qpq;
  for (std::size_t i = 0; i < d; ++i) {
    gpg += geo.g[i] * pg[i];
    qpg += geo.q[i] * pg[i];
    qpq += geo.q[i] * pq[i];
  }
  geo.a = gpg;
  if (geo.a.sign() <= 0)
    throw std::runtime_error("synthesize_region: P not positive definite");
  geo.vstar = geo.c0 * geo.c0 / geo.a;
  geo.t1 = geo.c0 * qpg / geo.a;
  geo.stilde = qpq - qpg * qpg / geo.a;
  return geo;
}

/// Exact check of condition (24) at sublevel k: every surface point with
/// V <= k has strictly inward flow.  Vacuously true when the ellipsoid
/// does not reach the surface (k < V*).
bool condition24_holds(const ExactGeometry& geo, const Rational& k) {
  if (k < geo.vstar) return true;  // slice empty
  if (geo.t1.sign() <= 0) return false;
  // min flow on the slice = t1 - sqrt((k - V*) * stilde) > 0
  //   <=>  t1 > 0  and  t1^2 > (k - V*) * stilde.
  return geo.t1 * geo.t1 > (k - geo.vstar) * geo.stilde;
}

}  // namespace

double ellipsoid_volume(const Matrix& p, double k) {
  const std::size_t d = p.rows();
  const double det = p.determinant();
  if (det <= 0.0 || k <= 0.0) return 0.0;
  const double log_ball =
      0.5 * static_cast<double>(d) * std::log(M_PI) -
      std::lgamma(0.5 * static_cast<double>(d) + 1.0);
  const double log_vol = log_ball +
                         0.5 * static_cast<double>(d) * std::log(k) -
                         0.5 * std::log(det);
  return std::exp(log_vol);
}

RobustRegion synthesize_region(const model::PwaSystem& system,
                               std::size_t mode_index, const Matrix& p,
                               const Vector& r, const RegionOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  RobustRegion out;
  const ExactGeometry geo = make_exact_geometry(system, mode_index, p, r,
                                                options.digits,
                                                options.deadline);
  const model::PwaMode& mode = system.mode(mode_index);
  const std::size_t d = system.dim();

  if (geo.stilde.is_zero()) {
    // The surface flow is constant along the surface (paper's special
    // case): if it points inward the whole region is robust.
    out.flow_constant_on_surface = true;
    out.certified = geo.t1.sign() > 0;
    out.optimal = true;
    out.k = out.k_supremum = std::numeric_limits<double>::infinity();
    out.volume = std::numeric_limits<double>::infinity();
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return out;
  }

  // Closed-form supremum k*: V* when the surface touch point already has
  // outward flow, otherwise the value where the inward-flow margin hits 0.
  const Rational k_sup = geo.t1.sign() <= 0
                             ? geo.vstar
                             : geo.vstar + geo.t1 * geo.t1 / geo.stilde;
  const Rational tol = Rational::from_double_rounded(options.tolerance, 6);
  const Rational k_cert = k_sup * (Rational{1} - tol);
  const Rational k_above = k_sup * (Rational{1} + tol);

  options.deadline.check();
  out.certified = condition24_holds(geo, k_cert);
  // Optimality: k*(1 + tol) must violate condition (24).
  out.optimal = !condition24_holds(geo, k_above);
  out.k = k_cert.to_double();
  out.k_supremum = k_sup.to_double();

  // Volume of the truncated ellipsoid W = {V <= k} ∩ R_i: full ellipsoid
  // volume times a Monte-Carlo estimate of the fraction inside the region.
  const double full = ellipsoid_volume(p, out.k);
  Matrix u = p.symmetrized();  // P = U^T U once factored
  if (numeric::cholesky_in_place(u) && full > 0.0 &&
      options.volume_samples > 0) {
    // x = w_eq + sqrt(k) U^-1 z with z uniform in the unit ball.
    Vector w_eq = mode.equilibrium(r);
    std::mt19937_64 rng{0x5e9f00d5};
    std::normal_distribution<double> gauss;
    std::uniform_real_distribution<double> unif{0.0, 1.0};
    int inside = 0;
    for (int s = 0; s < options.volume_samples; ++s) {
      Vector z(d);
      double norm = 0.0;
      for (auto& v : z) {
        v = gauss(rng);
        norm += v * v;
      }
      norm = std::sqrt(norm);
      const double radius =
          std::pow(unif(rng), 1.0 / static_cast<double>(d)) / norm;
      for (auto& v : z) v *= radius * std::sqrt(out.k);
      numeric::solve_upper(u, z);  // z := U^-1 z
      Vector x(d);
      for (std::size_t i = 0; i < d; ++i) x[i] = w_eq[i] + z[i];
      if (mode.contains(x)) ++inside;
    }
    out.volume = full * static_cast<double>(inside) /
                 static_cast<double>(options.volume_samples);
  } else {
    out.volume = full;
  }

  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

double state_robustness_radius(const model::PwaSystem& system,
                               std::size_t mode_index, const Matrix& p,
                               const Vector& r, const RobustRegion& region) {
  const model::PwaMode& mode = system.mode(mode_index);
  if (mode.region.size() != 1)
    throw std::invalid_argument("state_robustness_radius: single guard");
  const model::HalfSpace& hs = mode.region[0];
  const Vector w_eq = mode.equilibrium(r);
  const double delta =
      std::abs(numeric::dot(hs.g, w_eq) + hs.h) / numeric::norm2(hs.g);
  if (region.flow_constant_on_surface) {
    // W is the whole region: the ball is limited only by the surface.
    return delta;
  }
  auto eig = numeric::symmetric_eigen(p.symmetrized());
  const double lam_max = eig.values.back();
  if (lam_max <= 0.0)
    throw std::invalid_argument("state_robustness_radius: P not PD");
  return std::min(std::sqrt(region.k / lam_max), delta);
}

double reference_robustness_epsilon(const model::PwaSystem& system,
                                    std::size_t mode_index, const Matrix& p,
                                    const Vector& r,
                                    const RobustRegion& region) {
  const model::PwaMode& mode = system.mode(mode_index);
  if (mode.region.size() != 1)
    throw std::invalid_argument("reference_robustness_epsilon: single guard");
  const model::HalfSpace& hs = mode.region[0];
  const std::size_t d = system.dim();

  auto a_inv = mode.a.inverse();
  if (!a_inv)
    throw std::runtime_error("reference_robustness_epsilon: singular mode");
  const double beta = numeric::spectral_norm(*a_inv * mode.b);

  const Vector w_eq = mode.equilibrium(r);
  const double g_norm = numeric::norm2(hs.g);
  const double delta =
      std::abs(numeric::dot(hs.g, w_eq) + hs.h) / g_norm;

  if (region.flow_constant_on_surface) {
    // Paper: eps = dist(w_eq, surface) / ||A^-1 B||.
    return delta / beta;
  }

  // p_vec: orthogonal projection of A^T g onto g-perp (the direction in
  // which the surface flow varies along the surface).
  Vector atg = mode.a.apply_transposed(hs.g);
  const double coeff = numeric::dot(atg, hs.g) / (g_norm * g_norm);
  Vector p_vec(d);
  for (std::size_t i = 0; i < d; ++i) p_vec[i] = atg[i] - coeff * hs.g[i];
  const double p_norm = numeric::norm2(p_vec);
  if (p_norm == 0.0) return delta / beta;

  // gamma = ||g^T B|| / ||p||.
  const double gamma = numeric::norm2(mode.b.apply_transposed(hs.g)) / p_norm;

  // alpha: radius of a ball around w_eq inside W = {V <= k} ∩ R_i.
  auto eig = numeric::symmetric_eigen(p.symmetrized());
  const double lam_min = eig.values.front();
  const double lam_max = eig.values.back();
  if (lam_min <= 0.0 || lam_max <= 0.0)
    throw std::invalid_argument("reference_robustness_epsilon: P not PD");
  const double alpha =
      std::min(std::sqrt(region.k / lam_max), delta);
  const double mu = std::sqrt(lam_min / lam_max);

  return std::min(alpha * mu / (mu * (beta + gamma) + beta), delta / beta);
}

}  // namespace spiv::robust
