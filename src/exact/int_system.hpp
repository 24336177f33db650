// spiv::exact — shared integer form of a rational linear system.
//
// Both exact solvers (fraction-free Bareiss in matrix.cpp and the
// multi-modular CRT solver in modular.cpp) start the same way: multiply
// each row of the rational augmented system [A | B] by the LCM of its
// denominators so all arithmetic happens over integers.  This header keeps
// that preprocessing in one place; `row_scales` records the per-row LCMs
// needed to undo the scaling (determinants) — the *solution* of the scaled
// system is unchanged, since scaling a row of [A | b] scales both sides.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "exact/matrix.hpp"

namespace spiv::exact::detail {

/// Integer augmented system [M | R] with per-row scale factors and the
/// Hadamard-style prime budgets the multi-modular solvers run against.
/// The budgets are computed once here, at denominator-clearing time, so a
/// solve never rescans the full matrix/RHS to rebound itself (they used to
/// be recomputed from scratch on every solve call).
struct IntSystem {
  std::vector<std::vector<BigInt>> m;
  std::vector<std::vector<BigInt>> rhs;
  std::vector<BigInt> row_scales;
  /// Bits of a row-Hadamard bound on |det(M)| (+1 slack): the CRT budget
  /// for determinant_modular.
  std::size_t det_bound_bits = 0;
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
    auto fold = [&l](const Rational& v) {
      if (!v.den().is_one())
        l = BigInt::divexact(l, BigInt::gcd(l, v.den())) * v.den();
    };
    for (std::size_t j = 0; j < a.cols(); ++j) fold(a(i, j));
    for (std::size_t j = 0; j < k; ++j) fold((*b)(i, j));
    for (std::size_t j = 0; j < a.cols(); ++j)
      sys.m[i][j] = a(i, j).num() * BigInt::divexact(l, a(i, j).den());
    for (std::size_t j = 0; j < k; ++j)
      sys.rhs[i][j] =
          (*b)(i, j).num() * BigInt::divexact(l, (*b)(i, j).den());
  }
  // Row bound: |det| <= prod_i ||row_i||_2 <= prod_i sqrt(n) max_j |m_ij|.
  const std::size_t half_log = (std::bit_width(n) + 1) / 2;
  std::size_t det_bits = 1;
  for (const auto& row : sys.m) {
    std::size_t row_bits = 0;
    for (const BigInt& v : row) row_bits = std::max(row_bits, v.bit_length());
    det_bits += row_bits + half_log + 1;
  }
  sys.det_bound_bits = det_bits;
  if (b) {
    // Column bound for the Cramer numerators/denominators (see the field
    // comment above).
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

}  // namespace spiv::exact::detail
