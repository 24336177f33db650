// spiv::exact — exact dense matrices over Rational.
//
// These matrices are the workhorse of the symbolic validation layer:
// positive-definiteness certificates (Sylvester minors, LDL^T, Gaussian
// elimination), exact determinants, and the exact (eq-smt) solution of the
// Lyapunov equation are all computed here with no rounding whatsoever.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <vector>

#include "exact/rational.hpp"
#include "exact/timeout.hpp"

namespace spiv::exact {

/// Dense matrix with exact rational entries (row-major storage).
class RatMatrix {
 public:
  RatMatrix() = default;

  /// rows x cols zero matrix.
  RatMatrix(std::size_t rows, std::size_t cols);

  /// From nested initializer lists (rows of entries); all rows must have
  /// equal length.
  RatMatrix(std::initializer_list<std::initializer_list<Rational>> rows);

  [[nodiscard]] static RatMatrix identity(std::size_t n);
  [[nodiscard]] static RatMatrix zero(std::size_t rows, std::size_t cols) {
    return RatMatrix{rows, cols};
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] bool is_square() const { return rows_ == cols_; }

  [[nodiscard]] Rational& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const Rational& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  RatMatrix& operator+=(const RatMatrix& rhs);
  RatMatrix& operator-=(const RatMatrix& rhs);
  RatMatrix& operator*=(const Rational& s);

  friend RatMatrix operator+(RatMatrix a, const RatMatrix& b) { return a += b; }
  friend RatMatrix operator-(RatMatrix a, const RatMatrix& b) { return a -= b; }
  friend RatMatrix operator*(RatMatrix a, const Rational& s) { return a *= s; }
  friend RatMatrix operator*(const Rational& s, RatMatrix a) { return a *= s; }
  friend RatMatrix operator*(const RatMatrix& a, const RatMatrix& b);
  RatMatrix operator-() const;

  friend bool operator==(const RatMatrix& a, const RatMatrix& b) = default;

  [[nodiscard]] RatMatrix transposed() const;
  [[nodiscard]] bool is_symmetric() const;
  /// (M + M^T)/2.
  [[nodiscard]] RatMatrix symmetrized() const;

  /// Exact determinant (fraction-free Bareiss after clearing denominators).
  /// Requires a square matrix.  Throws TimeoutError when `deadline` expires
  /// mid-elimination.
  [[nodiscard]] Rational determinant(const Deadline& deadline = {}) const;

  /// Leading principal minors det(M[0..k, 0..k]) for k = 0..n-1, computed in
  /// one elimination sweep.  Requires a square matrix.
  [[nodiscard]] std::vector<Rational> leading_principal_minors() const;

  /// Exact solve A x = b for square non-singular A.  Returns nullopt when A
  /// is singular.  Throws TimeoutError when `deadline` expires mid-solve.
  [[nodiscard]] std::optional<std::vector<Rational>> solve(
      const std::vector<Rational>& b, const Deadline& deadline = {}) const;

  /// Exact solve A X = B (multi-RHS) by fraction-free Bareiss elimination of
  /// the augmented system after clearing denominators row-wise, with
  /// smallest-entry pivoting.  Every elimination step divides exactly (no
  /// rational gcd normalization on the hot path); only the final back
  /// substitution returns to Rational arithmetic.  Returns nullopt when A is
  /// singular.  Throws TimeoutError when `deadline` expires mid-solve.
  [[nodiscard]] std::optional<RatMatrix> solve(
      const RatMatrix& b, const Deadline& deadline = {}) const;

  /// Exact inverse.  Returns nullopt when singular.
  [[nodiscard]] std::optional<RatMatrix> inverse() const;

  /// Quadratic form x^T M x.
  [[nodiscard]] Rational quad_form(const std::vector<Rational>& x) const;

  /// Matrix-vector product.
  [[nodiscard]] std::vector<Rational> apply(const std::vector<Rational>& x) const;

  friend std::ostream& operator<<(std::ostream& os, const RatMatrix& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Rational> data_;
};

/// Build an exact matrix from a row-major double buffer, rounding each entry
/// to `digits` significant decimal figures first (the paper's protocol); pass
/// digits == 0 to convert exactly (binary-exact rationals).
[[nodiscard]] RatMatrix rat_matrix_from_doubles(const double* data,
                                                std::size_t rows,
                                                std::size_t cols, int digits);

}  // namespace spiv::exact
