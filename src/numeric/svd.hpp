// spiv::numeric — singular value decomposition (one-sided Jacobi).
//
// Only a test reference (crosscheck_test, numeric_property_test) and a
// micro benchmark: balanced truncation and spectral norms use
// symmetric_eigen.  One-sided Jacobi is slower than Golub–Kahan but simple
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
