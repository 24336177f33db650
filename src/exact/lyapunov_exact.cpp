#include "exact/lyapunov_exact.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "exact/int_system.hpp"
#include "exact/modular.hpp"
#include "obs/metrics.hpp"

namespace spiv::exact {

namespace {

obs::Counter& fallback_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("spiv_modular_fallback_total");
  return c;
}

obs::Histogram& residual_check_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "spiv_modular_residual_check_seconds");
  return h;
}

// Eager registration: the family shows up in `spiv-serve metrics` /
// --metrics-out scrapes before the first modular solve runs.
[[maybe_unused]] const bool kResidualMetricRegistered =
    (residual_check_seconds(), true);

/// Exact check that A^T P + P A + Q == 0 for a symmetric P, performed over
/// the integers: the rational form would pay a multi-thousand-bit gcd per
/// entry product (P's entries carry det-sized numerators), which is slower
/// than the solve it is guarding.  Scaling each matrix by the lcm of its
/// denominators turns the whole residual into BigInt multiply/accumulate.
bool lyapunov_residual_is_zero(const RatMatrix& a, const RatMatrix& p,
                               const RatMatrix& q,
                               const Deadline& deadline) {
  const auto t0 = std::chrono::steady_clock::now();
  struct Observe {
    std::chrono::steady_clock::time_point t0;
    ~Observe() {
      residual_check_seconds().observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
  } observe{t0};
  using detail::common_denominator;
  using detail::scaled_integers;
  const std::size_t n = a.rows();
  const BigInt da = common_denominator(a);
  const BigInt dp = common_denominator(p);
  const BigInt dq = common_denominator(q);
  const detail::IntRows qi = scaled_integers(q, dq);
  // Pi Ai + Ai^T Pi, polling the deadline per row (Pi is symmetric).
  const detail::IntRows form = detail::symmetric_lie_form(
      scaled_integers(p, dp), scaled_integers(a, da), deadline);
  // (Ai^T Pi + Pi Ai) dq + Qi da dp == 0  <=>  (A^T P + P A + Q) da dp dq == 0.
  const BigInt qscale = da * dp;
  for (std::size_t i = 0; i < n; ++i) {
    deadline.check();
    for (std::size_t j = 0; j < n; ++j)
      if (!(form[i][j] * dq + qi[i][j] * qscale).is_zero()) return false;
  }
  return true;
}

/// Multi-modular solve of op X = B.  nullopt means "use Bareiss": the
/// caller asked for it, the system looks singular, or reconstruction
/// failed.  Only genuine failures count as fallbacks.
std::optional<RatMatrix> try_modular_solve(const RatMatrix& op,
                                           const RatMatrix& b,
                                           const Deadline& deadline,
                                           ExactSolverStrategy strategy) {
  if (strategy != ExactSolverStrategy::Modular || op.rows() == 0)
    return std::nullopt;
  auto x = solve_rational_modular(op, b, deadline);
  if (!x) fallback_counter().add();
  return x;
}

}  // namespace

std::size_t vech_index(std::size_t i, std::size_t j, std::size_t n) {
  if (i < j) std::swap(i, j);
  // Column j contributes (n - j) entries; offset within column is i - j.
  return j * n - j * (j + 1) / 2 + i;
}

std::vector<Rational> vech(const RatMatrix& m) {
  if (!m.is_square())
    throw std::invalid_argument("vech: matrix must be square");
  const std::size_t n = m.rows();
  std::vector<Rational> out(n * (n + 1) / 2);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) out[vech_index(i, j, n)] = m(i, j);
  return out;
}

RatMatrix unvech(const std::vector<Rational>& v, std::size_t n) {
  if (v.size() != n * (n + 1) / 2)
    throw std::invalid_argument("unvech: size mismatch");
  RatMatrix m{n, n};
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) {
      m(i, j) = v[vech_index(i, j, n)];
      m(j, i) = m(i, j);
    }
  return m;
}

RatMatrix lyapunov_operator_vech(const RatMatrix& a, const Deadline& deadline) {
  if (!a.is_square())
    throw std::invalid_argument("lyapunov_operator_vech: A must be square");
  const std::size_t n = a.rows();
  const std::size_t big_n = n * (n + 1) / 2;
  RatMatrix op{big_n, big_n};
  // Column for the symmetric basis matrix E_{ij} (ones at (i,j),(j,i)).
  // F = A^T E_{ij} + E_{ij} A has at most 4 contributions per cell:
  //   F(r,c) = [c==j] a(i,r) + [c==i] a(j,r) + [r==i] a(j,c) + [r==j] a(i,c)
  // (drop the first and third term's twin when i == j, where E has a
  // single 1 at (i,i)).  F only has entries in rows/columns i and j, so
  // the dense two-matrix-products assembly (O(n^3) rational multiplies
  // per column, O(n^5) total) reduces to O(n) copies per column.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      deadline.check();
      const std::size_t col = vech_index(i, j, n);
      const auto cell = [&](std::size_t r, std::size_t c) {
        Rational v;
        if (c == j) v += a(i, r);
        if (r == j) v += a(i, c);
        if (i != j) {
          if (c == i) v += a(j, r);
          if (r == i) v += a(j, c);
        }
        return v;
      };
      // Nonzero cells of the lower triangle: row or column in {i, j}.
      for (std::size_t t = 0; t < n; ++t) {
        op(vech_index(t, j, n), col) = cell(std::max(t, j), std::min(t, j));
        if (i != j && t != j)
          op(vech_index(t, i, n), col) = cell(std::max(t, i), std::min(t, i));
      }
    }
  }
  return op;
}

std::optional<RatMatrix> solve_lyapunov_exact(
    const RatMatrix& a, const RatMatrix& q, const Deadline& deadline,
    ExactSolverStrategy strategy) {
  if (!a.is_square())
    throw std::invalid_argument("solve_lyapunov_exact: A must be square");
  if (!q.is_square() || a.rows() != q.rows())
    throw std::invalid_argument("solve_lyapunov_exact: shape mismatch");
  if (!q.is_symmetric())
    throw std::invalid_argument("solve_lyapunov_exact: Q must be symmetric");
  const std::size_t n = a.rows();
  const RatMatrix op = lyapunov_operator_vech(a, deadline);
  const std::vector<Rational> rhs = vech(-q);
  RatMatrix b{rhs.size(), 1};
  for (std::size_t i = 0; i < rhs.size(); ++i) b(i, 0) = rhs[i];
  if (auto x = try_modular_solve(op, b, deadline, strategy)) {
    std::vector<Rational> col(rhs.size());
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = (*x)(i, 0);
    RatMatrix p = unvech(col, n);
    // The modular path already verified op·X == B; this recheck is the
    // belt-and-braces guarantee that what we hand out satisfies the
    // *Lyapunov equation*, independent of how op was assembled.
    if (lyapunov_residual_is_zero(a, p, q, deadline)) return p;
    fallback_counter().add();
  }
  // Deadline-aware fraction-free solve for whatever the modular path did
  // not deliver (RatMatrix::solve polls the deadline and any attached
  // CancelToken at row granularity).  nullopt: the operator is singular.
  auto x = op.solve(rhs, deadline);
  if (!x) return std::nullopt;
  return unvech(*x, n);
}

RatMatrix lyapunov_residual(const RatMatrix& a, const RatMatrix& p,
                            const RatMatrix& q) {
  return a.transposed() * p + p * a + q;
}

}  // namespace spiv::exact
