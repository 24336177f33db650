// spiv::numeric — complex dense matrices, complex Schur decomposition and
// eigen-decomposition of real matrices.
//
// The paper's `modal` synthesis method builds a Lyapunov matrix
// P = M^{-1 dagger} M^{-1} from a modal (eigenvector) matrix M of A; the
// Bartels–Stewart Lyapunov solver also needs a Schur form.  For the sizes
// involved (<= ~22) a complex single-shift QR iteration on a Hessenberg
// reduction is simple and robust, so we use the complex Schur form
// A = U T U^H throughout and take real parts at the boundaries.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <vector>

#include "numeric/matrix.hpp"

namespace spiv::numeric {

using Complex = std::complex<double>;

/// Dense row-major complex matrix (minimal interface for Schur/modal work).
class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] static CMatrix identity(std::size_t n);
  [[nodiscard]] static CMatrix from_real(const Matrix& m);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] Complex& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] Complex operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  friend CMatrix operator*(const CMatrix& a, const CMatrix& b);
  CMatrix& operator-=(const CMatrix& rhs);
  friend CMatrix operator-(CMatrix a, const CMatrix& b) { return a -= b; }

  /// Conjugate (Hermitian) transpose.
  [[nodiscard]] CMatrix adjoint() const;

  /// Gaussian elimination with partial pivoting; nullopt when singular.
  [[nodiscard]] std::optional<CMatrix> inverse() const;

  [[nodiscard]] Matrix real_part() const;
  [[nodiscard]] double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
};

/// Complex Schur decomposition A = U T U^H with T upper triangular and U
/// unitary.  `converged` is false if the QR iteration hit its sweep budget
/// (extremely unlikely for well-scaled inputs; results are still returned).
struct ComplexSchur {
  CMatrix u;
  CMatrix t;
  bool converged = true;
};
[[nodiscard]] ComplexSchur complex_schur(const Matrix& a);

/// Eigen-decomposition of a real (generally non-symmetric) matrix.
/// `values[k]` is the k-th eigenvalue; `modal` has the corresponding
/// (complex, unit-norm) eigenvectors as columns, obtained from the Schur
/// form by triangular back-substitution.
struct EigenDecomposition {
  std::vector<Complex> values;
  CMatrix modal;
  bool converged = true;
};
[[nodiscard]] EigenDecomposition eigen_decompose(const Matrix& a);

/// Just the eigenvalues of a real square matrix.
[[nodiscard]] std::vector<Complex> eigenvalues(const Matrix& a);

/// Spectral abscissa: max real part over the spectrum (negative iff Hurwitz).
[[nodiscard]] double spectral_abscissa(const Matrix& a);

/// True when every eigenvalue has real part < -margin.
[[nodiscard]] bool is_hurwitz(const Matrix& a, double margin = 0.0);

}  // namespace spiv::numeric
