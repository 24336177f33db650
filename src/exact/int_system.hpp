// spiv::exact — shared integer forms of rational matrices.
//
// Both exact solvers (fraction-free Bareiss in matrix.cpp and the
// multi-modular CRT solver in modular.cpp) start the same way: multiply
// each row of the rational augmented system [A | B] by the LCM of its
// denominators so all arithmetic happens over integers.  This header keeps
// that preprocessing in one place; `row_scales` records the per-row LCMs
// needed to undo the scaling (determinants) — the *solution* of the scaled
// system is unchanged, since scaling a row of [A | b] scales both sides.
//
// The Lyapunov checks (validation's Lie matrix in smt/validate.cpp and the
// exact solver's residual recheck in lyapunov_exact.cpp) instead scale a
// whole matrix by one common denominator and form S·A + Aᵀ·S over the
// integers; the helpers for that live here too.  Everything is inline so
// it compiles into its callers' translation units.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "exact/matrix.hpp"

namespace spiv::exact::detail {

/// Integer matrix as rows.
using IntRows = std::vector<std::vector<BigInt>>;

/// l = lcm(l, den) for positive l and den.
inline void fold_denominator(BigInt& l, const BigInt& den) {
  if (den.is_one() || den == l) return;
  l = BigInt::divexact(l, BigInt::gcd(l, den)) * den;
}

/// Integer augmented system [M | R] with per-row scale factors and the
/// Hadamard-style prime budget the multi-modular solver runs against.
/// The budget is computed once here, at denominator-clearing time, so a
/// solve never rescans the full matrix/RHS to rebound itself.
struct IntSystem {
  IntRows m;
  IntRows rhs;
  std::vector<BigInt> row_scales;
  /// Bits the CRT modulus must reach so balanced rational reconstruction
  /// of the solution of M x = R is guaranteed: by Cramer every numerator
  /// is a det of M with a column swapped for an R column and every
  /// denominator divides det(M); both are below the column-Hadamard bound,
  /// and balanced reconstruction needs the modulus to exceed
  /// 2 * max(num, den)^2.  Zero when there is no RHS.
  std::size_t solve_budget_bits = 0;
};

/// Clear denominators row-wise; `b` may be nullptr (no right-hand side).
inline IntSystem clear_denominators(const RatMatrix& a, const RatMatrix* b) {
  const std::size_t n = a.rows();
  const std::size_t k = b ? b->cols() : 0;
  IntSystem sys;
  sys.m.assign(n, std::vector<BigInt>(a.cols()));
  sys.rhs.assign(n, std::vector<BigInt>(k));
  sys.row_scales.assign(n, BigInt{1});
  for (std::size_t i = 0; i < n; ++i) {
    BigInt& l = sys.row_scales[i];
    for (std::size_t j = 0; j < a.cols(); ++j)
      fold_denominator(l, a(i, j).den());
    for (std::size_t j = 0; j < k; ++j) fold_denominator(l, (*b)(i, j).den());
    for (std::size_t j = 0; j < a.cols(); ++j)
      sys.m[i][j] = a(i, j).num() * BigInt::divexact(l, a(i, j).den());
    for (std::size_t j = 0; j < k; ++j)
      sys.rhs[i][j] =
          (*b)(i, j).num() * BigInt::divexact(l, (*b)(i, j).den());
  }
  if (b) {
    // Column bound for the Cramer numerators/denominators (see the field
    // comment above): |det| <= prod_j ||col_j||_2 <= prod_j sqrt(n) max_i
    // |m_ij|.
    const std::size_t half_log = (std::bit_width(n) + 1) / 2;
    std::size_t sum_cols = 0;
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t col_bits = 0;
      for (std::size_t i = 0; i < n; ++i)
        col_bits = std::max(col_bits, sys.m[i][j].bit_length());
      sum_cols += col_bits + half_log + 1;
    }
    std::size_t b_bits = 0;
    for (const auto& row : sys.rhs)
      for (const BigInt& v : row) b_bits = std::max(b_bits, v.bit_length());
    const std::size_t num_bits = sum_cols + b_bits + half_log + 1;
    sys.solve_budget_bits = 2 * num_bits + 2;
  }
  return sys;
}

/// Least common multiple of the entry denominators of `m`.
inline BigInt common_denominator(const RatMatrix& m) {
  BigInt l{1};
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      fold_denominator(l, m(i, j).den());
  return l;
}

/// The integer matrix scale * m; `scale` is a common denominator of m.
inline IntRows scaled_integers(const RatMatrix& m, const BigInt& scale) {
  IntRows out(m.rows(), std::vector<BigInt>(m.cols()));
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      out[i][j] = m(i, j).num() * BigInt::divexact(scale, m(i, j).den());
  return out;
}

/// S·A + Aᵀ·S for square integer matrices of one size.  Precondition: S is
/// symmetric (not checked), so (Aᵀ·S)(i, j) = (S·A)(j, i) and one product
/// S·A serves both terms.  Polls `deadline` once per row of the product.
inline IntRows symmetric_lie_form(const IntRows& s, const IntRows& a,
                                  const Deadline& deadline = {}) {
  const std::size_t n = s.size();
  IntRows sa(n, std::vector<BigInt>(n));
  for (std::size_t i = 0; i < n; ++i) {
    deadline.check();
    for (std::size_t k = 0; k < n; ++k) {
      if (s[i][k].is_zero()) continue;
      for (std::size_t j = 0; j < n; ++j)
        if (!a[k][j].is_zero()) sa[i][j] += s[i][k] * a[k][j];
    }
  }
  IntRows out(n, std::vector<BigInt>(n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) out[i][j] = sa[i][j] + sa[j][i];
  return out;
}

}  // namespace spiv::exact::detail
