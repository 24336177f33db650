#include "sdp/lmi.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

namespace spiv::sdp {

using numeric::Matrix;
using numeric::Vector;

MatrixPencil::MatrixPencil(Matrix f0, std::vector<Matrix> coeffs)
    : f0_(std::move(f0)) {
  if (!f0_.is_square())
    throw std::invalid_argument("MatrixPencil: F0 must be square");
  if (f0_.rows() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("MatrixPencil: dimension exceeds 32 bits");
  const std::size_t n = f0_.rows();
  std::size_t nonzeros = 0;
  for (const auto& c : coeffs) {
    if (c.rows() != n || c.cols() != n)
      throw std::invalid_argument("MatrixPencil: coefficient shape mismatch");
    nonzeros += n * n - std::count(c.data().begin(), c.data().end(), 0.0);
  }
  entries_.reserve(nonzeros);
  entry_start_.reserve(coeffs.size() + 1);
  col_start_.reserve(coeffs.size() + 1);
  entry_start_.push_back(0);
  col_start_.push_back(0);
  std::vector<bool> used(n);
  for (const auto& c : coeffs) {
    used.assign(n, false);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (c(i, j) != 0.0) {
          entries_.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j), c(i, j)});
          used[j] = true;
        }
    for (std::size_t j = 0; j < n; ++j)
      if (used[j]) cols_.push_back(static_cast<std::uint32_t>(j));
    entry_start_.push_back(entries_.size());
    col_start_.push_back(cols_.size());
  }
}

Matrix MatrixPencil::evaluate(const Vector& p) const {
  if (p.size() != num_vars())
    throw std::invalid_argument("MatrixPencil: wrong number of variables");
  Matrix out = f0_;
  for (std::size_t k = 0; k < p.size(); ++k) {
    if (p[k] == 0.0) continue;
    for (const Entry& e : entries(k)) out(e.row, e.col) += p[k] * e.value;
  }
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

/// Strict positive-definiteness probe via Cholesky (cheap and robust).
bool is_pd(const Matrix& m) { return m.cholesky().has_value(); }

/// The derivative matrices W_x = G^{-1} D_x of one block G = F(p) - t I,
/// for every variable x: the p_k (D_k = F_k) and then the slack t
/// (D_t = -I).  W_x is zero outside the columns where D_x holds a nonzero,
/// so only those columns cols(x) are stored, transposed: row r of the
/// stored block is column cols(x)[r] of W_x.  Terms dropped anywhere below
/// are exact zeros and every kept sum runs in the order of the dense
/// assembly, so gradient and Hessian equal the dense ones bit for bit.
class BlockDerivatives {
 public:
  /// Form every W_x for `pencil` from G^{-1}.  Each entry of W_k sums
  /// G^{-1}(i, l) F_k(l, j) over F_k's nonzeros in ascending l, the order
  /// of the dense product.
  void form(const MatrixPencil& pencil, const Matrix& ginv) {
    n_ = ginv.rows();
    const std::size_t big_k = pencil.num_vars();
    every_col_.resize(n_);
    for (std::size_t j = 0; j < n_; ++j)
      every_col_[j] = static_cast<std::uint32_t>(j);
    cols_.resize(big_k + 1);
    start_.resize(big_k + 2);
    start_[0] = 0;
    for (std::size_t k = 0; k < big_k; ++k) {
      // A coefficient holding more than half the columns is stored over
      // all of them (the added ones hold exact zeros), so its pairs take
      // the 4-way dense traces.
      const auto cols = pencil.columns(k);
      cols_[k] = 2 * cols.size() > n_ ? std::span{every_col_} : cols;
      start_[k + 1] = start_[k] + cols_[k].size() * n_;
    }
    cols_[big_k] = every_col_;
    start_[big_k + 1] = start_[big_k] + n_ * n_;
    wt_.assign(start_[big_k + 1], 0.0);

    const Matrix ginv_t = ginv.transposed();  // row l = column l of G^{-1}
    slot_.resize(n_);
    for (std::size_t k = 0; k < big_k; ++k) {
      for (std::size_t r = 0; r < cols_[k].size(); ++r) slot_[cols_[k][r]] = r;
      double* w = wt_.data() + start_[k];
      for (const MatrixPencil::Entry& e : pencil.entries(k)) {
        const double* g = ginv_t.data().data() + e.row * n_;
        double* row = w + slot_[e.col] * n_;
        for (std::size_t i = 0; i < n_; ++i) row[i] += g[i] * e.value;
      }
    }
    // W_t = -G^{-1}, so W_t^T = -(G^{-1})^T.
    double* w = wt_.data() + start_[big_k];
    for (std::size_t e = 0; e < n_ * n_; ++e) w[e] = -ginv_t.data()[e];
  }

  /// Add this block's barrier gradient -tr(W_a) and Hessian tr(W_a W_b).
  void accumulate(Vector& grad, Matrix& hess) {
    const std::size_t nx = cols_.size();
    for (std::size_t a = 0; a < nx; ++a) {
      // tr(W_a): the diagonal is zero outside cols(a).
      double tr = 0.0;
      for (std::size_t r = 0; r < cols_[a].size(); ++r)
        tr += wt(a)[r * n_ + cols_[a][r]];
      grad[a] -= tr;

      const bool dense_a = is_dense(a);
      if (dense_a) {
        // Row-major W_a: against W_b^T, tr(W_a W_b) is a flat dot product.
        wa_.resize(n_ * n_);
        for (std::size_t i = 0; i < n_; ++i)
          for (std::size_t j = 0; j < n_; ++j)
            wa_[i * n_ + j] = wt(a)[j * n_ + i];
      }
      std::size_t b = a;
      while (b < nx) {
        if (dense_a && b + 4 <= nx && is_dense(b) && is_dense(b + 1) &&
            is_dense(b + 2) && is_dense(b + 3)) {
          const std::array<double, 4> tr4 = dense_traces4(b);
          for (std::size_t q = 0; q < 4; ++q) add(hess, a, b + q, tr4[q]);
          b += 4;
        } else {
          add(hess, a, b, sparse_trace(a, b));
          ++b;
        }
      }
    }
  }

 private:
  [[nodiscard]] const double* wt(std::size_t x) const {
    return wt_.data() + start_[x];
  }
  [[nodiscard]] bool is_dense(std::size_t x) const {
    return cols_[x].size() == n_;
  }
  static void add(Matrix& hess, std::size_t a, std::size_t b, double hab) {
    hess(a, b) += hab;
    if (b != a) hess(b, a) += hab;
  }

  /// tr(W_a W_b) = sum_i sum_j W_a(i, j) W_b(j, i) over the only terms that
  /// can be nonzero, j in cols(a) and i in cols(b), in dense (i, j) order.
  [[nodiscard]] double sparse_trace(std::size_t a, std::size_t b) const {
    const auto ca = cols_[a];
    const auto cb = cols_[b];
    const double* wa = wt(a);
    const double* wb = wt(b);
    double acc = 0.0;
    for (std::size_t rb = 0; rb < cb.size(); ++rb)
      for (std::size_t ra = 0; ra < ca.size(); ++ra)
        acc += wa[ra * n_ + cb[rb]] * wb[rb * n_ + ca[ra]];
    return acc;
  }

  /// tr(W_a W_{b+q}) for q = 0..3 with every W dense: the row-major W_a in
  /// `wa_` walks the four W_b^T at once, one accumulator each, each in
  /// dense (i, j) order.
  [[nodiscard]] std::array<double, 4> dense_traces4(std::size_t b) const {
    const double* w0 = wt(b);
    const double* w1 = wt(b + 1);
    const double* w2 = wt(b + 2);
    const double* w3 = wt(b + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t e = 0; e < n_ * n_; ++e) {
      const double x = wa_[e];
      s0 += x * w0[e];
      s1 += x * w1[e];
      s2 += x * w2[e];
      s3 += x * w3[e];
    }
    return {s0, s1, s2, s3};
  }

  std::size_t n_ = 0;
  std::vector<std::uint32_t> every_col_;              ///< 0..n-1
  std::vector<std::span<const std::uint32_t>> cols_;  ///< cols(x)
  std::vector<std::size_t> start_;  ///< x's stored block at wt_[start_[x]]
  std::vector<double> wt_;          ///< every W_x^T over cols(x)
  std::vector<std::size_t> slot_;   ///< column -> row of W_k^T while forming
  std::vector<double> wa_;          ///< row-major W_a for the dense traces
};

}  // namespace

LmiSolution solve_lmi_barrier(const LmiProblem& problem,
                              const LmiOptions& options, BarrierMode mode) {
  const bool aggressive = mode == BarrierMode::Aggressive;
  const bool short_step = mode == BarrierMode::ShortStep;
  problem.validate();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t big_k = problem.num_vars;  // p variables
  const std::size_t nx = big_k + 1;            // plus the slack t

  // Phase-I: maximize t subject to F_j(p) - t I > 0, starting from p = 0
  // and t strictly below the current minimum eigenvalue.
  Vector p(big_k, 0.0);
  double t = problem.min_eigenvalue(p) - 1.0;

  // Shifted blocks G_j(p, t) = F_j(p) - t I.
  auto eval_block = [&problem](std::size_t j, const Vector& pp, double tt) {
    Matrix g = problem.constraints[j].evaluate(pp);
    for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) -= tt;
    return g;
  };
  auto all_pd = [&](const Vector& pp, double tt) {
    for (std::size_t j = 0; j < problem.constraints.size(); ++j)
      if (!is_pd(eval_block(j, pp, tt))) return false;
    return true;
  };
  auto barrier_value = [&](const Vector& pp, double tt) {
    double phi = 0.0;
    for (std::size_t j = 0; j < problem.constraints.size(); ++j) {
      auto chol = eval_block(j, pp, tt).cholesky();
      if (!chol) return std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < chol->rows(); ++i)
        phi -= 2.0 * std::log((*chol)(i, i));
    }
    return phi;
  };

  LmiSolution sol;
  // Barrier weight on t; aggressive mode ramps it much faster and accepts
  // the first point past the margin without re-centering, while the
  // short-step mode crawls along the central path (slow but certain).
  double mu = aggressive ? 16.0 : (short_step ? 1.0 : 4.0);
  const double mu_growth = aggressive ? 20.0 : (short_step ? 1.4 : 6.0);
  const double stop_margin =
      aggressive ? options.target_margin : options.target_margin * 10.0;
  const int max_outer = aggressive ? 6 : (short_step ? 60 : 10);
  // Short-step mode caps the damped-Newton step fraction.
  const double max_step = short_step ? 0.18 : 1.0;

  BlockDerivatives w;
  int iters = 0;
  for (int outer = 0; outer < max_outer; ++outer) {
    for (int inner = 0; inner < options.max_iterations; ++inner) {
      options.deadline.check();
      ++iters;
      // Gradient and Hessian of phi_mu = -mu t + barrier over x = (p, t).
      Vector grad(nx, 0.0);
      grad[big_k] = -mu;
      Matrix hess{nx, nx};
      for (std::size_t j = 0; j < problem.constraints.size(); ++j) {
        auto ginv = eval_block(j, p, t).inverse();
        if (!ginv) return sol;  // numerically on the boundary
        w.form(problem.constraints[j], *ginv);
        w.accumulate(grad, hess);
      }
      // Damped Newton step.
      for (std::size_t i = 0; i < nx; ++i) hess(i, i) += 1e-12;
      Vector neg_grad(nx);
      for (std::size_t i = 0; i < nx; ++i) neg_grad[i] = -grad[i];
      auto step_opt = hess.solve(neg_grad);
      if (!step_opt) return sol;
      const Vector& step = *step_opt;

      // Backtracking line search maintaining strict feasibility of the
      // shifted blocks and decreasing phi_mu.
      const double phi0 = barrier_value(p, t) - mu * t;
      double s = max_step;
      Vector p_new = p;
      double t_new = t;
      bool accepted = false;
      for (int ls = 0; ls < 40; ++ls) {
        for (std::size_t k = 0; k < big_k; ++k) p_new[k] = p[k] + s * step[k];
        t_new = t + s * step[big_k];
        if (all_pd(p_new, t_new)) {
          const double phi1 = barrier_value(p_new, t_new) - mu * t_new;
          if (phi1 < phi0 - 1e-12 * std::abs(phi0) ||
              s < (aggressive ? 1e-2 : 1e-4)) {
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
    mu *= mu_growth;
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

LmiSolution solve_lmi(const LmiProblem& problem, Backend backend,
                      const LmiOptions& options) {
  switch (backend) {
    case Backend::NewtonAnalyticCenter:
      return solve_lmi_barrier(problem, options, BarrierMode::Robust);
    case Backend::FastInteriorPoint:
      return solve_lmi_barrier(problem, options, BarrierMode::Aggressive);
    case Backend::ShortStepBarrier:
      return solve_lmi_barrier(problem, options, BarrierMode::ShortStep);
  }
  throw std::invalid_argument("solve_lmi: unknown backend");
}

}  // namespace spiv::sdp
