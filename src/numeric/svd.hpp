// spiv::numeric — singular value decomposition (one-sided Jacobi).
//
// Used by balanced-truncation model reduction (Hankel singular values of
// the Gramian product) and for spectral norms in the robustness bounds of
// paper §VI-C2.  One-sided Jacobi is slower than Golub–Kahan but simple
// and extremely robust at our sizes (n <= ~22).
#pragma once

#include "numeric/matrix.hpp"

namespace spiv::numeric {

/// A = U diag(s) V^T with singular values descending, U (m x n column-
/// orthonormal for m >= n), V (n x n orthogonal).  Requires rows >= cols;
/// transpose first otherwise.
struct Svd {
  Matrix u;
  Vector singular_values;
  Matrix v;
};

[[nodiscard]] Svd svd_decompose(const Matrix& a);

}  // namespace spiv::numeric
