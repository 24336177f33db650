#include "sdp/lmi.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

namespace spiv::sdp {

using numeric::Matrix;
using numeric::Vector;

namespace {

void check_dimension(const Matrix& f0) {
  if (!f0.is_square())
    throw std::invalid_argument("MatrixPencil: F0 must be square");
  if (f0.rows() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("MatrixPencil: dimension exceeds 32 bits");
}

}  // namespace

MatrixPencil::MatrixPencil(Matrix f0, std::vector<Matrix> coeffs)
    : f0_(std::move(f0)), d_(Matrix::identity(f0_.rows())), identity_(true) {
  check_dimension(f0_);
  const std::size_t n = f0_.rows();
  term_start_.reserve(coeffs.size() + 1);
  term_start_.push_back(0);
  for (const auto& c : coeffs) {
    if (c.rows() != n || c.cols() != n)
      throw std::invalid_argument("MatrixPencil: coefficient shape mismatch");
    if (!c.is_symmetric(0.0))
      throw std::invalid_argument("MatrixPencil: coefficient not symmetric");
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j)
        if (c(i, j) != 0.0)
          terms_.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j),
                            i == j ? 0.5 * c(i, i) : c(i, j)});
    owner_.resize(terms_.size(), static_cast<std::uint32_t>(num_vars()));
    term_start_.push_back(terms_.size());
  }
}

MatrixPencil::MatrixPencil(Matrix f0, Matrix dictionary,
                           const std::vector<std::vector<Term>>& terms)
    : f0_(std::move(f0)), d_(std::move(dictionary)) {
  check_dimension(f0_);
  const std::size_t n = f0_.rows();
  if (d_.rows() != n)
    throw std::invalid_argument("MatrixPencil: dictionary row mismatch");
  identity_ = d_.is_square() && (d_ - Matrix::identity(n)).max_abs() == 0.0;
  term_start_.reserve(terms.size() + 1);
  term_start_.push_back(0);
  for (const auto& coeff : terms) {
    for (const Term& t : coeff) {
      if (t.p >= n || t.j >= d_.cols())
        throw std::invalid_argument("MatrixPencil: term index out of range");
      terms_.push_back(t);
    }
    owner_.resize(terms_.size(), static_cast<std::uint32_t>(num_vars()));
    term_start_.push_back(terms_.size());
  }
}

Matrix MatrixPencil::evaluate(const Vector& p) const {
  if (p.size() != num_vars())
    throw std::invalid_argument("MatrixPencil: wrong number of variables");
  // sum_k p_k F_k = X + X^T with X = C D^T, C(p, j) = sum of p_k w.
  Matrix c{dim(), d_.cols()};
  for (std::size_t k = 0; k < p.size(); ++k) {
    if (p[k] == 0.0) continue;
    for (const Term& t : terms(k)) c(t.p, t.j) += p[k] * t.w;
  }
  const Matrix x = identity_ ? c : c * d_.transposed();
  Matrix out = f0_;
  for (std::size_t i = 0; i < dim(); ++i)
    for (std::size_t l = 0; l < dim(); ++l) out(i, l) += x(i, l) + x(l, i);
  return out;
}

void LmiProblem::validate() const {
  if (constraints.empty())
    throw std::invalid_argument("LmiProblem: no constraints");
  for (const auto& c : constraints)
    if (c.num_vars() != num_vars)
      throw std::invalid_argument("LmiProblem: variable count mismatch");
}

double LmiProblem::min_eigenvalue(const Vector& p) const {
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& c : constraints) {
    auto eig = numeric::symmetric_eigen(c.evaluate(p));
    worst = std::min(worst, eig.values.front());
  }
  return worst;
}

std::string to_string(Backend b) {
  switch (b) {
    case Backend::NewtonAnalyticCenter: return "newton-ac";
    case Backend::FastInteriorPoint: return "fast-ipm";
    case Backend::ShortStepBarrier: return "short-ipm";
  }
  return "?";
}

std::optional<Backend> backend_from_string(const std::string& name) {
  for (Backend b : {Backend::NewtonAnalyticCenter, Backend::FastInteriorPoint,
                    Backend::ShortStepBarrier})
    if (to_string(b) == name) return b;
  return std::nullopt;
}

namespace {

/// The shifted block G = F(p) - t I.
Matrix shifted_block(const MatrixPencil& pencil, const Vector& p, double t) {
  Matrix g = pencil.evaluate(p);
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) -= t;
  return g;
}

/// Add one block's barrier gradient and Hessian for G = F(p) - t I, given
/// S = sym(G^{-1}).  The variables are the p_k (dG = F_k) and then the
/// slack t (dG = -I); the gradient is -tr(S dG_a) and the Hessian
/// tr(S dG_a S dG_b), accumulated into the upper triangle of `hess`.  Over
/// the factored terms, with SD = S D and Gamma = D^T S D:
///   tr(S F_a)         = sum_tau 2 w SD(p, j),
///   tr(S F_a S F_b)   = 2 sum_{tau in a, sigma in b} w_tau w_sigma
///                       [SD(p_tau, j_sigma) SD(p_sigma, j_tau)
///                        + S(p_tau, p_sigma) Gamma(j_tau, j_sigma)],
///   tr(S F_a S (-I))  = -sum_tau 2 w (S SD)(p, j),
///   tr(S (-I) S (-I)) = ||S||_F^2.
void accumulate_block(const MatrixPencil& pencil, const Matrix& s,
                      Vector& grad, Matrix& hess) {
  const std::size_t n = s.rows();
  const std::size_t big_k = pencil.num_vars();
  const bool identity = pencil.identity_dictionary();
  const Matrix sd = identity ? s : s * pencil.dictionary();
  const Matrix gamma =
      identity ? s : pencil.dictionary().transposed() * sd;
  const Matrix ssd = s * sd;

  for (std::size_t a = 0; a < big_k; ++a) {
    const auto ta = pencil.terms(a);
    if (ta.empty()) continue;
    double g = 0.0;
    double h_t = 0.0;
    for (const auto& x : ta) {
      g += 2.0 * x.w * sd(x.p, x.j);
      h_t += 2.0 * x.w * ssd(x.p, x.j);
    }
    grad[a] -= g;
    hess(a, big_k) -= h_t;
    // Row a of the upper triangle: one flat pass over the terms of every
    // coefficient b >= a per term of a.
    const auto rest = pencil.terms_from(a);
    const auto owner = pencil.owners_from(a);
    double* row = &hess(a, 0);
    for (const auto& x : ta) {
      const double wx = 2.0 * x.w;
      const double* sd_p = sd.data().data() + x.p * sd.cols();
      const double* s_p = s.data().data() + x.p * n;
      const double* gamma_j = gamma.data().data() + x.j * gamma.cols();
      for (std::size_t r = 0; r < rest.size(); ++r) {
        const auto& y = rest[r];
        row[owner[r]] += wx * y.w *
                         (sd_p[y.j] * sd(y.p, x.j) + s_p[y.p] * gamma_j[y.j]);
      }
    }
  }
  double tr = 0.0;
  double frob = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tr += s(i, i);
    for (std::size_t j = 0; j < n; ++j) frob += s(i, j) * s(i, j);
  }
  grad[big_k] += tr;
  hess(big_k, big_k) += frob;
}

/// One backend's step schedule: the barrier weight mu on t and its growth
/// per outer round, the stop margin over the target, the outer rounds, and
/// the line search's first and smallest step.  Fast-ipm ramps mu fast and
/// stops at the first point past the margin without re-centering;
/// short-ipm crawls along the central path with capped damped-Newton steps
/// (slow but certain).
struct Schedule {
  double mu, mu_growth, margin_factor;
  int max_outer;
  double max_step, min_step;
};

Schedule schedule(Backend backend) {
  switch (backend) {
    case Backend::NewtonAnalyticCenter: return {4.0, 6.0, 10.0, 10, 1.0, 1e-4};
    case Backend::FastInteriorPoint: return {16.0, 20.0, 1.0, 6, 1.0, 1e-2};
    case Backend::ShortStepBarrier: return {1.0, 1.4, 10.0, 60, 0.18, 1e-4};
  }
  throw std::invalid_argument("solve_lmi: unknown backend");
}

}  // namespace

std::optional<BarrierDerivatives> barrier_derivatives(const LmiProblem& problem,
                                                      const Vector& p,
                                                      double t) {
  const std::size_t nx = problem.num_vars + 1;
  BarrierDerivatives d{Vector(nx, 0.0), Matrix{nx, nx}};
  for (const auto& pencil : problem.constraints) {
    auto ginv = shifted_block(pencil, p, t).inverse();
    if (!ginv) return std::nullopt;
    accumulate_block(pencil, ginv->symmetrized(), d.grad, d.hess);
  }
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < i; ++j) d.hess(i, j) = d.hess(j, i);
  return d;
}

LmiSolution solve_lmi(const LmiProblem& problem, Backend backend,
                      const LmiOptions& options) {
  const Schedule sched = schedule(backend);
  problem.validate();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t big_k = problem.num_vars;  // p variables
  const std::size_t nx = big_k + 1;            // plus the slack t

  // Phase-I: maximize t subject to F_j(p) - t I > 0, starting from p = 0
  // and t strictly below the current minimum eigenvalue.
  Vector p(big_k, 0.0);
  double t = problem.min_eigenvalue(p) - 1.0;

  // -sum log det(F_j(p) - t I) from one in-place Cholesky per block; +inf
  // when a block is not positive definite.
  auto barrier_value = [&](const Vector& pp, double tt) {
    double phi = 0.0;
    for (const auto& pencil : problem.constraints) {
      Matrix g = shifted_block(pencil, pp, tt);
      if (!numeric::cholesky_in_place(g))
        return std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < g.rows(); ++i)
        phi -= 2.0 * std::log(g(i, i));
    }
    return phi;
  };

  LmiSolution sol;
  double mu = sched.mu;  // barrier weight on t
  const double stop_margin = options.target_margin * sched.margin_factor;

  int iters = 0;
  double barrier = barrier_value(p, t);  // at the current (p, t)
  for (int outer = 0; outer < sched.max_outer; ++outer) {
    for (int inner = 0; inner < options.max_iterations; ++inner) {
      options.deadline.check();
      ++iters;
      // Gradient and Hessian of phi_mu = -mu t + barrier over x = (p, t).
      auto derivatives = barrier_derivatives(problem, p, t);
      if (!derivatives) return sol;  // numerically on the boundary
      Vector& grad = derivatives->grad;
      Matrix& hess = derivatives->hess;
      grad[big_k] -= mu;
      // Damped Newton step.  The diagonal shift is relative: the piecewise
      // systems' diagonals span ~1e-6 to ~1e5, where an absolute 1e-12 is
      // below roundoff.
      double diag_max = 1.0;
      for (std::size_t i = 0; i < nx; ++i)
        diag_max = std::max(diag_max, hess(i, i));
      for (std::size_t i = 0; i < nx; ++i) hess(i, i) += 1e-12 * diag_max;
      Vector step(nx);
      for (std::size_t i = 0; i < nx; ++i) step[i] = -grad[i];
      if (!numeric::cholesky_solve(hess, step)) return sol;

      // Backtracking line search maintaining strict feasibility of the
      // shifted blocks and decreasing phi_mu.  Only a finite barrier value
      // (every block positive definite) is a candidate, so the small-step
      // clause can never accept an infeasible point.
      const double phi0 = barrier - mu * t;
      double s = sched.max_step;
      Vector p_new = p;
      double t_new = t;
      double barrier_new = barrier;
      bool accepted = false;
      for (int ls = 0; ls < 40; ++ls) {
        for (std::size_t k = 0; k < big_k; ++k) p_new[k] = p[k] + s * step[k];
        t_new = t + s * step[big_k];
        barrier_new = barrier_value(p_new, t_new);
        if (std::isfinite(barrier_new)) {
          const double phi1 = barrier_new - mu * t_new;
          if (phi1 < phi0 - 1e-12 * std::abs(phi0) || s < sched.min_step) {
            accepted = true;
            break;
          }
        }
        s *= 0.5;
      }
      if (!accepted) break;  // stalled at this mu
      const double decrement = s * numeric::dot(step, grad);
      p = p_new;
      t = t_new;
      barrier = barrier_new;
      if (t >= stop_margin) {
        sol.feasible = true;
        sol.p = p;
        sol.achieved_margin = problem.min_eigenvalue(p);
        sol.iterations = iters;
        sol.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        return sol;
      }
      if (std::abs(decrement) < 1e-10 * (1.0 + std::abs(t))) break;
    }
    mu *= sched.mu_growth;
  }

  // Out of budget: report whatever margin we reached.
  sol.p = p;
  sol.achieved_margin = problem.min_eigenvalue(p);
  sol.feasible = sol.achieved_margin > 0.0;
  sol.iterations = iters;
  sol.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sol;
}

}  // namespace spiv::sdp
