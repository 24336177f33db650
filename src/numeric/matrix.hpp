// spiv::numeric — dense double-precision matrices and vectors.
//
// The numerical layer mirrors what the paper obtains from python-control /
// NumPy: fast floating-point linear algebra used to *synthesize* candidate
// Lyapunov functions (which are then validated exactly by spiv::smt).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <vector>

namespace spiv::numeric {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);
  [[nodiscard]] static Matrix diagonal(const Vector& d);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool is_square() const { return rows_ == cols_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  Matrix operator-() const;

  [[nodiscard]] Vector apply(const Vector& x) const;
  /// x^T M (returns a row vector as Vector).
  [[nodiscard]] Vector apply_transposed(const Vector& x) const;
  [[nodiscard]] double quad_form(const Vector& x) const;

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Matrix symmetrized() const;
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// Sub-matrix copy: rows [r0, r0+nr), cols [c0, c0+nc).
  [[nodiscard]] Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const;
  /// Write `m` into this matrix at offset (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& m);

  [[nodiscard]] double frobenius_norm() const;
  [[nodiscard]] double max_abs() const;

  /// LU with partial pivoting.  Returns nullopt when numerically singular.
  [[nodiscard]] std::optional<Vector> solve(const Vector& b) const;
  [[nodiscard]] std::optional<Matrix> solve(const Matrix& b) const;
  [[nodiscard]] std::optional<Matrix> inverse() const;
  [[nodiscard]] double determinant() const;

  /// Cholesky factor L (lower) with M = L L^T, from this lower triangle;
  /// nullopt when not PD.  Allocates; cholesky_in_place does the work.
  [[nodiscard]] std::optional<Matrix> cholesky() const;

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// --- the dense SPD kernel ------------------------------------------------

/// Factor the SPD matrix held in the upper triangle of `m` in place as
/// M = U^T U (row-oriented, right-looking; the strict lower triangle is
/// neither read nor written).  Blocked: a panel of 16 pivot rows is factored
/// by the plain row loop, then the rows below it are updated in 4x4 register
/// tiles.  The bits are the row loop's alone: every entry (i, k), k >= i,
/// still takes u_ik -= u_ji u_jk once per pivot j < i, in increasing j, each
/// product subtracted on its own.  A matrix smaller than two panels (the
/// line search's blocks) is one panel, the row loop alone.  False when a
/// pivot is not positive and finite (NaN and ±Inf never factor), and `m` is
/// then left part-factored; throws std::invalid_argument when `m` is not
/// square.
[[nodiscard]] bool cholesky_in_place(Matrix& m);
/// Solve U^T y = b in place, U from cholesky_in_place.
void solve_upper_transposed(const Matrix& u, Vector& b);
/// Solve U x = y in place, U from cholesky_in_place.
void solve_upper(const Matrix& u, Vector& b);
/// Solve M x = b in place by the three above; false (b unchanged) when M
/// does not factor.
[[nodiscard]] bool cholesky_solve(Matrix& m, Vector& b);

// --- free vector helpers -------------------------------------------------

[[nodiscard]] double dot(const Vector& a, const Vector& b);
[[nodiscard]] double norm2(const Vector& v);
[[nodiscard]] Vector operator+(const Vector& a, const Vector& b);
[[nodiscard]] Vector operator-(const Vector& a, const Vector& b);
[[nodiscard]] Vector operator*(double s, const Vector& v);

/// Householder QR: A = Q R with Q orthogonal (rows x rows) and R upper
/// trapezoidal (rows x cols).
struct Qr {
  Matrix q;
  Matrix r;
};
[[nodiscard]] Qr qr_decompose(const Matrix& a);

/// Symmetric eigendecomposition via cyclic Jacobi: A = V diag(w) V^T,
/// eigenvalues ascending.  Requires symmetric input (symmetrize first
/// if in doubt).
struct SymmetricEigen {
  Vector values;  ///< ascending
  Matrix vectors; ///< columns are eigenvectors
};
[[nodiscard]] SymmetricEigen symmetric_eigen(const Matrix& a);

/// Largest singular value (spectral norm) — via symmetric_eigen of A^T A.
[[nodiscard]] double spectral_norm(const Matrix& a);

}  // namespace spiv::numeric
