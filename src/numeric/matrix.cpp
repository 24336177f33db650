#include "numeric/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace spiv::numeric {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m{d.size(), d.size()};
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix: shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix: shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols_ != b.rows_)
    throw std::invalid_argument("Matrix: shape mismatch in *");
  Matrix out{a.rows_, b.cols_};
  for (std::size_t i = 0; i < a.rows_; ++i)
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols_; ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

Matrix Matrix::operator-() const {
  Matrix out = *this;
  for (auto& v : out.data_) v = -v;
  return out;
}

Vector Matrix::apply(const Vector& x) const {
  if (x.size() != cols_)
    throw std::invalid_argument("Matrix: apply shape mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j) * x[j];
  return out;
}

Vector Matrix::apply_transposed(const Vector& x) const {
  if (x.size() != rows_)
    throw std::invalid_argument("Matrix: apply_transposed shape mismatch");
  Vector out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += (*this)(i, j) * xi;
  }
  return out;
}

double Matrix::quad_form(const Vector& x) const {
  if (!is_square() || x.size() != rows_)
    throw std::invalid_argument("Matrix: quad_form shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) row += (*this)(i, j) * x[j];
    acc += x[i] * row;
  }
  return acc;
}

Matrix Matrix::transposed() const {
  Matrix out{cols_, rows_};
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

Matrix Matrix::symmetrized() const {
  if (!is_square())
    throw std::invalid_argument("Matrix: symmetrized requires square");
  Matrix out{rows_, cols_};
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      out(i, j) = 0.5 * ((*this)(i, j) + (*this)(j, i));
  return out;
}

bool Matrix::is_symmetric(double tol) const {
  if (!is_square()) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
  return true;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  if (r0 + nr > rows_ || c0 + nc > cols_)
    throw std::out_of_range("Matrix: block out of range");
  Matrix out{nr, nc};
  for (std::size_t i = 0; i < nr; ++i)
    for (std::size_t j = 0; j < nc; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
  return out;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& m) {
  if (r0 + m.rows_ > rows_ || c0 + m.cols_ > cols_)
    throw std::out_of_range("Matrix: set_block out of range");
  for (std::size_t i = 0; i < m.rows_; ++i)
    for (std::size_t j = 0; j < m.cols_; ++j)
      (*this)(r0 + i, c0 + j) = m(i, j);
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

namespace {

struct Lu {
  Matrix lu;                 // combined factors
  std::vector<std::size_t> perm;
  int parity = 1;
  bool singular = false;
};

Lu lu_decompose(const Matrix& a) {
  const std::size_t n = a.rows();
  Lu f{a, {}, 1, false};
  f.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(f.lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(f.lu(r, col)) > best) {
        best = std::abs(f.lu(r, col));
        pivot = r;
      }
    }
    if (best == 0.0) {
      f.singular = true;
      return f;
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(f.lu(pivot, j), f.lu(col, j));
      std::swap(f.perm[pivot], f.perm[col]);
      f.parity = -f.parity;
    }
    const double inv = 1.0 / f.lu(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = f.lu(r, col) * inv;
      f.lu(r, col) = factor;
      for (std::size_t j = col + 1; j < n; ++j)
        f.lu(r, j) -= factor * f.lu(col, j);
    }
  }
  return f;
}

}  // namespace

std::optional<Matrix> Matrix::solve(const Matrix& b) const {
  if (!is_square() || b.rows_ != rows_)
    throw std::invalid_argument("Matrix: solve shape mismatch");
  const std::size_t n = rows_;
  Lu f = lu_decompose(*this);
  if (f.singular) return std::nullopt;
  Matrix x{n, b.cols_};
  for (std::size_t col = 0; col < b.cols_; ++col) {
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b(f.perm[i], col);
      for (std::size_t j = 0; j < i; ++j) acc -= f.lu(i, j) * y[j];
      y[i] = acc;
    }
    for (std::size_t i = n; i-- > 0;) {
      double acc = y[i];
      for (std::size_t j = i + 1; j < n; ++j) acc -= f.lu(i, j) * x(j, col);
      x(i, col) = acc / f.lu(i, i);
    }
  }
  return x;
}

std::optional<Vector> Matrix::solve(const Vector& b) const {
  if (b.size() != rows_)
    throw std::invalid_argument("Matrix: solve rhs size mismatch");
  Matrix col{rows_, 1};
  for (std::size_t i = 0; i < rows_; ++i) col(i, 0) = b[i];
  auto x = solve(col);
  if (!x) return std::nullopt;
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*x)(i, 0);
  return out;
}

std::optional<Matrix> Matrix::inverse() const {
  if (!is_square())
    throw std::invalid_argument("Matrix: inverse requires square");
  return solve(identity(rows_));
}

double Matrix::determinant() const {
  if (!is_square())
    throw std::invalid_argument("Matrix: determinant requires square");
  Lu f = lu_decompose(*this);
  if (f.singular) return 0.0;
  double det = f.parity;
  for (std::size_t i = 0; i < rows_; ++i) det *= f.lu(i, i);
  return det;
}

std::optional<Matrix> Matrix::cholesky() const {
  // L = U^T for the factor U of the transpose, whose upper triangle is
  // this lower triangle; the kernel leaves the rest of u as it was.
  Matrix u = transposed();
  if (!cholesky_in_place(u)) return std::nullopt;
  for (std::size_t i = 1; i < rows_; ++i)
    for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
  return u.transposed();
}

namespace {

// Pivot rows per panel of the blocked factor.  A matrix smaller than two
// panels is factored as one panel, by the plain row loop alone: below that
// size the tile pass costs more than it saves.
constexpr std::size_t kPanel = 16;

/// Factor pivot rows [p0, p1) of `m`, whose first p0 rows are factored and
/// whose other rows hold their updates, applying each pivot's update to the
/// panel rows after it only.  False at the first pivot that is not positive
/// and finite.
bool factor_panel(Matrix& m, std::size_t p0, std::size_t p1) {
  const std::size_t n = m.rows();
  for (std::size_t j = p0; j < p1; ++j) {
    double* uj = &m(j, 0);
    // Written so a NaN pivot fails too (`uj[j] <= 0.0` is false for NaN).
    // An infinite pivot only comes from an infinite entry: no factor.
    if (!(uj[j] > 0.0) || std::isinf(uj[j])) return false;
    uj[j] = std::sqrt(uj[j]);
    const double inv = 1.0 / uj[j];
    for (std::size_t k = j + 1; k < n; ++k) uj[k] *= inv;
    for (std::size_t i = j + 1; i < p1; ++i) {
      const double f = uj[i];
      double* ui = &m(i, 0);
      // Unrolled by four so the compiler pairs the updates into vector
      // instructions at -O2.
      std::size_t k = i;
      for (; k + 4 <= n; k += 4) {
        ui[k] -= f * uj[k];
        ui[k + 1] -= f * uj[k + 1];
        ui[k + 2] -= f * uj[k + 2];
        ui[k + 3] -= f * uj[k + 3];
      }
      for (; k < n; ++k) ui[k] -= f * uj[k];
    }
  }
  return true;
}

/// u(i..i+3, k..k+3) -= u(j, i..i+3)^T u(j, k..k+3) for each pivot row j in
/// [p0, p1), in that order, one product at a time.  The 16 entries stay in
/// registers across the pivots; `u` is row-major with row stride `ld`.  On
/// the diagonal (k == i) the strict lower entries are neither read nor
/// written.
template <bool Diagonal>
void update_tile(double* u, std::size_t ld, std::size_t p0, std::size_t p1,
                 std::size_t i, std::size_t k) {
  double* r0 = u + i * ld + k;
  double* r1 = r0 + ld;
  double* r2 = r1 + ld;
  double* r3 = r2 + ld;
  double c00 = r0[0], c01 = r0[1], c02 = r0[2], c03 = r0[3];
  double c10 = Diagonal ? 0.0 : r1[0], c11 = r1[1], c12 = r1[2], c13 = r1[3];
  double c20 = Diagonal ? 0.0 : r2[0], c21 = Diagonal ? 0.0 : r2[1],
         c22 = r2[2], c23 = r2[3];
  double c30 = Diagonal ? 0.0 : r3[0], c31 = Diagonal ? 0.0 : r3[1],
         c32 = Diagonal ? 0.0 : r3[2], c33 = r3[3];
  for (std::size_t j = p0; j < p1; ++j) {
    const double* uj = u + j * ld;
    const double a0 = uj[i], a1 = uj[i + 1], a2 = uj[i + 2], a3 = uj[i + 3];
    const double b0 = uj[k], b1 = uj[k + 1], b2 = uj[k + 2], b3 = uj[k + 3];
    c00 -= a0 * b0; c01 -= a0 * b1; c02 -= a0 * b2; c03 -= a0 * b3;
    c10 -= a1 * b0; c11 -= a1 * b1; c12 -= a1 * b2; c13 -= a1 * b3;
    c20 -= a2 * b0; c21 -= a2 * b1; c22 -= a2 * b2; c23 -= a2 * b3;
    c30 -= a3 * b0; c31 -= a3 * b1; c32 -= a3 * b2; c33 -= a3 * b3;
  }
  r0[0] = c00; r0[1] = c01; r0[2] = c02; r0[3] = c03;
  r1[1] = c11; r1[2] = c12; r1[3] = c13;
  r2[2] = c22; r2[3] = c23;
  r3[3] = c33;
  if (!Diagonal) {
    r1[0] = c10;
    r2[0] = c20; r2[1] = c21;
    r3[0] = c30; r3[1] = c31; r3[2] = c32;
  }
}

/// u(i, k) -= u(j, i) u(j, k) for each pivot row j in [p0, p1), in order.
void update_entry(double* u, std::size_t ld, std::size_t p0, std::size_t p1,
                  std::size_t i, std::size_t k) {
  double c = u[i * ld + k];
  for (std::size_t j = p0; j < p1; ++j) c -= u[j * ld + i] * u[j * ld + k];
  u[i * ld + k] = c;
}

/// Apply the updates of pivot rows [p0, p1) to the upper triangle of rows
/// [p1, n) in 4x4 tiles, entry by entry on the last n mod 4 columns and
/// rows.
void update_trailing(Matrix& m, std::size_t p0, std::size_t p1) {
  const std::size_t n = m.rows();
  double* u = &m(0, 0);
  std::size_t i = p1;
  for (; i + 4 <= n; i += 4) {
    update_tile<true>(u, n, p0, p1, i, i);
    std::size_t k = i + 4;
    for (; k + 4 <= n; k += 4) update_tile<false>(u, n, p0, p1, i, k);
    for (; k < n; ++k)
      for (std::size_t r = 0; r < 4; ++r) update_entry(u, n, p0, p1, i + r, k);
  }
  for (; i < n; ++i)
    for (std::size_t k = i; k < n; ++k) update_entry(u, n, p0, p1, i, k);
}

}  // namespace

bool cholesky_in_place(Matrix& m) {
  if (!m.is_square())
    throw std::invalid_argument("Matrix: cholesky requires square");
  const std::size_t n = m.rows();
  if (n < 2 * kPanel) return factor_panel(m, 0, n);
  // Right-looking by panels.  Each entry (i, k), k >= i, still takes
  // u_ik -= u_ji u_jk once per pivot j < i in increasing j, each product
  // subtracted on its own, so the factor is the row loop's bit for bit.
  for (std::size_t p0 = 0; p0 < n; p0 += kPanel) {
    const std::size_t p1 = std::min(p0 + kPanel, n);
    if (!factor_panel(m, p0, p1)) return false;
    update_trailing(m, p0, p1);
  }
  return true;
}

void solve_upper_transposed(const Matrix& u, Vector& b) {
  const std::size_t n = u.rows();
  for (std::size_t i = 0; i < n; ++i) {
    b[i] /= u(i, i);
    for (std::size_t k = i + 1; k < n; ++k) b[k] -= u(i, k) * b[i];
  }
}

void solve_upper(const Matrix& u, Vector& b) {
  const std::size_t n = u.rows();
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= u(i, k) * b[k];
    b[i] = acc / u(i, i);
  }
}

bool cholesky_solve(Matrix& m, Vector& b) {
  if (!cholesky_in_place(m)) return false;
  solve_upper_transposed(m, b);
  solve_upper(m, b);
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << m(i, j) << (j + 1 == m.cols() ? "" : ", ");
    os << (i + 1 == m.rows() ? "]" : ";\n");
  }
  return os;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector operator+(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("vector +: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector operator-(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("vector -: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector operator*(double s, const Vector& v) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = s * v[i];
  return out;
}

Qr qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix r = a;
  Matrix q = Matrix::identity(m);
  for (std::size_t k = 0; k < std::min(m == 0 ? 0 : m - 1, n); ++k) {
    // Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = r(k, k) >= 0 ? -norm : norm;
    Vector v(m, 0.0);
    v[k] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i] = r(i, k);
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 == 0.0) continue;
    const double beta = 2.0 / vnorm2;
    // R <- (I - beta v v^T) R
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i] * r(i, j);
      s *= beta;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= s * v[i];
    }
    // Q <- Q (I - beta v v^T)
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = k; j < m; ++j) s += q(i, j) * v[j];
      s *= beta;
      for (std::size_t j = k; j < m; ++j) q(i, j) -= s * v[j];
    }
  }
  // Clean negligible subdiagonal noise in R.
  for (std::size_t i = 1; i < m; ++i)
    for (std::size_t j = 0; j < std::min<std::size_t>(i, n); ++j) r(i, j) = 0.0;
  return {std::move(q), std::move(r)};
}

SymmetricEigen symmetric_eigen(const Matrix& a) {
  if (!a.is_square())
    throw std::invalid_argument("symmetric_eigen: requires square");
  const std::size_t n = a.rows();
  Matrix m = a.symmetrized();
  Matrix v = Matrix::identity(n);
  const int max_sweeps = 100;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += m(i, j) * m(i, j);
    if (off < 1e-26 * (1.0 + m.frobenius_norm())) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply Jacobi rotation to rows/cols p and q of m.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p), mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k), mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  // Sort ascending by eigenvalue, permuting eigenvector columns to match.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&m](std::size_t x, std::size_t y) { return m(x, x) < m(y, y); });
  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = Matrix{n, n};
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = m(order[k], order[k]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, k) = v(i, order[k]);
  }
  return out;
}

double spectral_norm(const Matrix& a) {
  const Matrix ata = a.transposed() * a;
  auto eig = symmetric_eigen(ata);
  const double lam = eig.values.empty() ? 0.0 : eig.values.back();
  return lam > 0 ? std::sqrt(lam) : 0.0;
}

}  // namespace spiv::numeric
