#include "smt/validate.hpp"

#include <chrono>
#include <stdexcept>

#include "exact/int_system.hpp"
#include "numeric/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "smt/charpoly.hpp"

namespace spiv::smt {

using exact::BigInt;
using exact::RatMatrix;
using exact::Rational;

std::string to_string(Engine e) {
  switch (e) {
    case Engine::Sylvester: return "sylvester";
    case Engine::SympyGauss: return "sympy-gauss";
    case Engine::Ldlt: return "ldlt";
    case Engine::SmtZ3Style: return "smt-z3";
    case Engine::SmtCvc5Style: return "smt-cvc5";
  }
  return "?";
}

std::optional<Engine> engine_from_string(const std::string& name) {
  for (Engine e : {Engine::Sylvester, Engine::SympyGauss, Engine::Ldlt,
                   Engine::SmtZ3Style, Engine::SmtCvc5Style})
    if (to_string(e) == name) return e;
  return std::nullopt;
}

namespace {

using exact::detail::IntRows;

/// Sylvester criterion with early exit, by fraction-free Bareiss elimination
/// of an integer matrix without row swaps: pivot k is the k-th leading
/// principal minor, so the scan stops at the first minor <= 0.  Every
/// division by the previous pivot is exact (Sylvester's identity), so each
/// entry update is one fused BigInt::cross_divexact -- two products and a
/// Hensel exact division, no gcd and no remainder -- whose zero-remainder
/// self-check throws std::logic_error rather than return a truncated minor.
/// Returns Valid iff every leading principal minor is strictly positive.
Outcome sylvester_strict(IntRows m, const Deadline& deadline) {
  const std::size_t n = m.size();
  BigInt prev{1};
  for (std::size_t col = 0; col < n; ++col) {
    deadline.check();
    const BigInt& pivot = m[col][col];
    if (pivot.sign() <= 0) return Outcome::Invalid;
    for (std::size_t r = col + 1; r < n; ++r) {
      deadline.check();  // row-level poll: rows get heavy late in elimination
      const BigInt f = std::move(m[r][col]);
      // Even for f == 0 the row is rescaled by pivot/prev, which keeps every
      // entry a minor of the input (and the next division exact).
      for (std::size_t j = col + 1; j < n; ++j)
        m[r][j] = BigInt::cross_divexact(pivot, m[r][j], f, m[col][j], prev);
    }
    prev = pivot;
  }
  return Outcome::Valid;
}

/// Fraction-free Bareiss elimination without renormalization (the SymPy
/// is_positive_definite route): the k-th pivot equals the k-th leading
/// principal minor, intermediate products are kept un-divided as long as
/// possible, giving the heavier coefficient growth the paper observed.
Outcome bareiss_strict(const RatMatrix& input, const Deadline& deadline) {
  RatMatrix m = input;
  const std::size_t n = m.rows();
  Rational prev_pivot{1};
  for (std::size_t col = 0; col < n; ++col) {
    deadline.check();
    const Rational pivot = m(col, col);
    // Bareiss pivots are exactly the leading principal minors.
    if (pivot.sign() <= 0) return Outcome::Invalid;
    for (std::size_t r = col + 1; r < n; ++r) {
      deadline.check();  // row-level poll; see sylvester_strict
      for (std::size_t j = col + 1; j < n; ++j) {
        m(r, j) = (pivot * m(r, j) - m(r, col) * m(col, j)) / prev_pivot;
      }
      m(r, col) = Rational{};
    }
    prev_pivot = pivot;
  }
  return Outcome::Valid;
}

/// Exact LDL^T with early exit on a non-positive pivot.
Outcome ldlt_strict(const RatMatrix& input, const Deadline& deadline) {
  const std::size_t n = input.rows();
  RatMatrix l = RatMatrix::identity(n);
  std::vector<Rational> d(n);
  for (std::size_t j = 0; j < n; ++j) {
    deadline.check();
    Rational dj = input(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      if (l(j, k).is_zero()) continue;
      dj -= l(j, k) * l(j, k) * d[k];
    }
    if (dj.sign() <= 0) return Outcome::Invalid;
    d[j] = dj;
    const Rational inv_dj = dj.reciprocal();
    for (std::size_t i = j + 1; i < n; ++i) {
      deadline.check();  // row-level poll; see sylvester_strict
      Rational acc = input(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        if (l(i, k).is_zero() || l(j, k).is_zero()) continue;
        acc -= l(i, k) * l(j, k) * d[k];
      }
      l(i, j) = acc * inv_dj;
    }
  }
  return Outcome::Valid;
}

/// SMT-style counter-model attempt: rationalize the numeric eigenvector of
/// the smallest eigenvalue and test the quadratic form exactly.  Returns a
/// witness when it certifies indefiniteness.
std::optional<std::vector<Rational>> counter_model(const RatMatrix& m) {
  const std::size_t n = m.rows();
  numeric::Matrix md{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) md(i, j) = m(i, j).to_double();
  auto eig = numeric::symmetric_eigen(md);
  if (eig.values.front() > 0.0) return std::nullopt;  // numerically PD
  std::vector<Rational> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = exact::Rational::from_double_rounded(eig.vectors(i, 0), 8);
  bool nonzero = false;
  for (const auto& v : w) nonzero |= !v.is_zero();
  if (!nonzero) return std::nullopt;
  if (m.quad_form(w).sign() <= 0) return w;
  return std::nullopt;
}

/// Runs one decision under the clock; a TimeoutError becomes
/// Outcome::Timeout.  `decide` may record a witness in the verdict.
template <class Decide>
Verdict timed(Decide&& decide) {
  Verdict verdict;
  const auto start = std::chrono::steady_clock::now();
  try {
    verdict.outcome = decide(verdict);
  } catch (const TimeoutError&) {
    verdict.outcome = Outcome::Timeout;
  }
  verdict.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return verdict;
}

/// The engine dispatch of check_positive_definite on a symmetric matrix.
Outcome decide(const RatMatrix& m, Engine engine, const CheckOptions& options,
               Verdict& verdict) {
  switch (engine) {
    case Engine::Sylvester: {
      if (options.det_encoding) {
        // "+det": nonsingularity first, then the weak condition (which
        // together with det != 0 is equivalent to the strict one).
        if (m.determinant(options.deadline).is_zero()) return Outcome::Invalid;
      }
      // Row scales are positive, so every leading minor keeps its sign.
      return sylvester_strict(exact::detail::clear_denominators(m, nullptr).m,
                              options.deadline);
    }
    case Engine::SympyGauss: {
      if (options.det_encoding && m.determinant(options.deadline).is_zero())
        return Outcome::Invalid;
      return bareiss_strict(m, options.deadline);
    }
    case Engine::Ldlt: {
      if (options.det_encoding && m.determinant(options.deadline).is_zero())
        return Outcome::Invalid;
      return ldlt_strict(m, options.deadline);
    }
    case Engine::SmtZ3Style:
    case Engine::SmtCvc5Style: {
      // Phase 1: cheap counter-model search (SAT answers are fast).
      if (auto w = counter_model(m)) {
        verdict.witness = std::move(*w);
        return Outcome::Invalid;
      }
      // Phase 2: complete decision via the characteristic polynomial.
      auto coeffs = engine == Engine::SmtZ3Style
                        ? characteristic_polynomial_faddeev(m, options.deadline)
                        : characteristic_polynomial_interpolation(
                              m, options.deadline);
      bool ok;
      if (options.det_encoding) {
        // weak alternation + det != 0  (det = +/- c0).
        ok = all_roots_nonnegative(coeffs) && !coeffs.front().is_zero();
      } else {
        ok = all_roots_positive_strict(coeffs);
      }
      return ok ? Outcome::Valid : Outcome::Invalid;
    }
  }
  throw std::logic_error("check_positive_definite: unknown engine");
}

/// Decides positive-definiteness of the exact matrix m / scale (scale > 0).
/// Plain Sylvester runs on the integers directly: a positive scale leaves
/// every leading minor's sign unchanged.  The other engines (and "+det")
/// receive the value-identical rational matrix.
Verdict check_scaled(IntRows m, const BigInt& scale, Engine engine,
                     const CheckOptions& options) {
  if (engine != Engine::Sylvester || options.det_encoding) {
    RatMatrix exact_m{m.size(), m.size()};
    for (std::size_t i = 0; i < m.size(); ++i)
      for (std::size_t j = 0; j < m.size(); ++j)
        exact_m(i, j) = Rational{std::move(m[i][j]), scale};
    return check_positive_definite(exact_m, engine, options);
  }
  return timed([&](Verdict&) {
    return sylvester_strict(std::move(m), options.deadline);
  });
}

}  // namespace

Verdict check_positive_definite(const RatMatrix& m, Engine engine,
                                const CheckOptions& options) {
  if (!m.is_square() || !m.is_symmetric())
    throw std::invalid_argument(
        "check_positive_definite: symmetric matrix required");
  return timed(
      [&](Verdict& verdict) { return decide(m, engine, options, verdict); });
}

exact::RatMatrix rationalize(const numeric::Matrix& m, int digits) {
  return exact::rat_matrix_from_doubles(m.data().data(), m.rows(), m.cols(),
                                        digits);
}

LyapunovValidation validate_lyapunov(const numeric::Matrix& a,
                                     const numeric::Matrix& p, Engine engine,
                                     int digits, const CheckOptions& options) {
  if (!a.is_square() || !p.is_square() || a.rows() != p.rows())
    throw std::invalid_argument("validate_lyapunov: shape mismatch");
  obs::Span span{"validation", to_string(engine)};
  // The system matrix enters exactly; only the candidate is rounded
  // (paper §VI-B1: candidates rounded at the 10th significant figure).
  // Denominators are cleared once, so the Lie matrix is formed with BigInt
  // products instead of gcd-normalised rational ones:
  //   A_i = a_den A,   S = P_i + P_i^T = 2 p_den sym(P),
  //   L = -(A_i^T S + S A_i) = -2 a_den p_den (A^T sym(P) + sym(P) A).
  // Both are the exact matrices times a positive integer scale.
  using exact::detail::common_denominator;
  using exact::detail::scaled_integers;
  const std::size_t n = a.rows();
  const RatMatrix a_exact = rationalize(a, 0);
  const RatMatrix p_rounded = rationalize(p, digits);
  const BigInt a_den = common_denominator(a_exact);
  const BigInt p_den = common_denominator(p_rounded);
  const IntRows a_int = scaled_integers(a_exact, a_den);
  const IntRows p_int = scaled_integers(p_rounded, p_den);
  IntRows s(n, std::vector<BigInt>(n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) s[i][j] = p_int[i][j] + p_int[j][i];
  // S is symmetric by construction, as symmetric_lie_form requires.
  IntRows lie = exact::detail::symmetric_lie_form(s, a_int);
  for (auto& row : lie)
    for (BigInt& v : row) v = -v;
  const BigInt p_scale = p_den * BigInt{2};
  const BigInt lie_scale = p_scale * a_den;

  LyapunovValidation out;
  out.positivity = check_scaled(std::move(s), p_scale, engine, options);
  out.decrease = check_scaled(std::move(lie), lie_scale, engine, options);
  obs::Registry::global()
      .histogram("spiv_validation_seconds{engine=\"" + to_string(engine) +
                 "\"}")
      .observe(out.seconds());
  return out;
}

}  // namespace spiv::smt
