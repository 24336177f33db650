#include "numeric/svd.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spiv::numeric {

Svd svd_decompose(const Matrix& a) {
  if (a.rows() < a.cols())
    throw std::invalid_argument("svd_decompose: requires rows >= cols");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix u = a;                     // columns will be rotated to orthogonality
  Matrix v = Matrix::identity(n);
  const int max_sweeps = 60;
  const double eps = 1e-15;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Gram entries of columns p, q.
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          app += u(i, p) * u(i, p);
          aqq += u(i, q) * u(i, q);
          apq += u(i, p) * u(i, q);
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        converged = false;
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t i = 0; i < m; ++i) {
          const double up = u(i, p), uq = u(i, q);
          u(i, p) = c * up - s * uq;
          u(i, q) = s * up + c * uq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }
  // Column norms are the singular values; normalize U's columns.
  Svd out;
  out.singular_values.resize(n);
  std::vector<std::size_t> order(n);
  Vector norms(n);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += u(i, j) * u(i, j);
    norms[j] = std::sqrt(acc);
    order[j] = j;
  }
  std::sort(order.begin(), order.end(),
            [&norms](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });
  out.u = Matrix{m, n};
  out.v = Matrix{n, n};
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    out.singular_values[k] = norms[j];
    const double inv = norms[j] > 0 ? 1.0 / norms[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) out.u(i, k) = u(i, j) * inv;
    for (std::size_t i = 0; i < n; ++i) out.v(i, k) = v(i, j);
  }
  return out;
}

}  // namespace spiv::numeric
