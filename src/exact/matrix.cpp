#include "exact/matrix.hpp"

#include <ostream>
#include <stdexcept>

#include "exact/int_system.hpp"

namespace spiv::exact {

RatMatrix::RatMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

RatMatrix::RatMatrix(std::initializer_list<std::initializer_list<Rational>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_)
      throw std::invalid_argument("RatMatrix: ragged initializer");
    for (const auto& v : row) data_.push_back(v);
  }
}

RatMatrix RatMatrix::identity(std::size_t n) {
  RatMatrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m(i, i) = Rational{1};
  return m;
}

RatMatrix& RatMatrix::operator+=(const RatMatrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("RatMatrix: shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

RatMatrix& RatMatrix::operator-=(const RatMatrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("RatMatrix: shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

RatMatrix& RatMatrix::operator*=(const Rational& s) {
  for (auto& v : data_) v *= s;
  return *this;
}

RatMatrix operator*(const RatMatrix& a, const RatMatrix& b) {
  if (a.cols_ != b.rows_)
    throw std::invalid_argument("RatMatrix: shape mismatch in *");
  RatMatrix out{a.rows_, b.cols_};
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const Rational& aik = a(i, k);
      if (aik.is_zero()) continue;
      for (std::size_t j = 0; j < b.cols_; ++j) {
        if (b(k, j).is_zero()) continue;
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

RatMatrix RatMatrix::operator-() const {
  RatMatrix out = *this;
  for (auto& v : out.data_) v = -v;
  return out;
}

RatMatrix RatMatrix::transposed() const {
  RatMatrix out{cols_, rows_};
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

bool RatMatrix::is_symmetric() const {
  if (!is_square()) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if ((*this)(i, j) != (*this)(j, i)) return false;
  return true;
}

RatMatrix RatMatrix::symmetrized() const {
  if (!is_square())
    throw std::invalid_argument("RatMatrix: symmetrized requires square");
  RatMatrix out{rows_, cols_};
  const Rational half{1, 2};
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      out(i, j) = ((*this)(i, j) + (*this)(j, i)) * half;
  return out;
}

namespace {

using detail::IntSystem;
using detail::clear_denominators;

/// One sweep of fraction-free Bareiss elimination on an integer augmented
/// system, with smallest-entry pivoting.  Every division by the previous
/// pivot is exact (Sylvester's identity), so each update of M and of the
/// RHS is one fused BigInt::cross_divexact (Hensel exact division, no
/// gcd/normalization, throws std::logic_error on a nonzero remainder).
/// Returns false when the matrix is singular; `parity` flips per row swap.
/// Checks `deadline` at row granularity (the atomic cancel poll is cheap;
/// Clock::now() only every few rows).
bool bareiss_eliminate(IntSystem& sys, const Deadline& deadline,
                       bool* parity) {
  const std::size_t n = sys.m.size();
  const std::size_t k = sys.rhs.empty() ? 0 : sys.rhs.front().size();
  BigInt prev{1};
  std::size_t poll = 0;
  for (std::size_t col = 0; col < n; ++col) {
    deadline.check();
    std::size_t pivot = n;
    std::size_t best_bits = 0;
    for (std::size_t r = col; r < n; ++r) {
      if (sys.m[r][col].is_zero()) continue;
      const std::size_t bits = sys.m[r][col].bit_length();
      if (pivot == n || bits < best_bits) {
        pivot = r;
        best_bits = bits;
      }
    }
    if (pivot == n) return false;  // singular
    if (pivot != col) {
      sys.m[pivot].swap(sys.m[col]);
      if (k) sys.rhs[pivot].swap(sys.rhs[col]);
      if (parity) *parity = !*parity;
    }
    const BigInt& p = sys.m[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      if ((++poll & 7u) == 0) deadline.check();
      const BigInt f = std::move(sys.m[r][col]);
      sys.m[r][col] = BigInt{};
      // Note: even for f == 0 the row must be rescaled by p/prev to keep
      // every entry a minor of the original matrix (exact divisions).
      for (std::size_t j = col + 1; j < n; ++j)
        sys.m[r][j] =
            BigInt::cross_divexact(p, sys.m[r][j], f, sys.m[col][j], prev);
      for (std::size_t j = 0; j < k; ++j)
        sys.rhs[r][j] =
            BigInt::cross_divexact(p, sys.rhs[r][j], f, sys.rhs[col][j], prev);
    }
    prev = p;
  }
  return true;
}

}  // namespace

Rational RatMatrix::determinant(const Deadline& deadline) const {
  if (!is_square())
    throw std::invalid_argument("RatMatrix: determinant requires square");
  const std::size_t n = rows_;
  if (n == 0) return Rational{1};
  IntSystem sys = clear_denominators(*this, nullptr);
  bool parity = false;
  if (!bareiss_eliminate(sys, deadline, &parity)) return Rational{};
  // The last Bareiss pivot is det of the scaled integer matrix; undo the
  // per-row scaling and the swap parity.
  BigInt scale{1};
  for (const BigInt& l : sys.row_scales) scale *= l;
  BigInt det = sys.m[n - 1][n - 1];
  if (parity) det = -det;
  return Rational{std::move(det), std::move(scale)};
}

std::vector<Rational> RatMatrix::leading_principal_minors() const {
  if (!is_square())
    throw std::invalid_argument("RatMatrix: minors require square");
  const std::size_t n = rows_;
  std::vector<Rational> minors;
  minors.reserve(n);
  // Elimination without row swaps: the product of the first k pivots is the
  // k-th leading principal minor.  When a zero pivot appears the remaining
  // minors are computed directly by determinant of the leading block.
  RatMatrix m = *this;
  Rational prod{1};
  for (std::size_t col = 0; col < n; ++col) {
    if (m(col, col).is_zero()) {
      // Fall back: compute remaining minors as explicit determinants.
      for (std::size_t k = col; k < n; ++k) {
        RatMatrix block{k + 1, k + 1};
        for (std::size_t i = 0; i <= k; ++i)
          for (std::size_t j = 0; j <= k; ++j) block(i, j) = (*this)(i, j);
        minors.push_back(block.determinant());
      }
      return minors;
    }
    prod *= m(col, col);
    minors.push_back(prod);
    const Rational inv_pivot = m(col, col).reciprocal();
    for (std::size_t r = col + 1; r < n; ++r) {
      if (m(r, col).is_zero()) continue;
      const Rational factor = m(r, col) * inv_pivot;
      m(r, col) = Rational{};
      for (std::size_t j = col + 1; j < n; ++j) {
        if (m(col, j).is_zero()) continue;
        m(r, j) -= factor * m(col, j);
      }
    }
  }
  return minors;
}

std::optional<RatMatrix> RatMatrix::solve(const RatMatrix& b,
                                          const Deadline& deadline) const {
  if (!is_square() || b.rows_ != rows_)
    throw std::invalid_argument("RatMatrix: solve shape mismatch");
  const std::size_t n = rows_;
  const std::size_t k = b.cols_;
  if (n == 0) return RatMatrix{0, k};
  IntSystem sys = clear_denominators(*this, &b);
  if (!bareiss_eliminate(sys, deadline, nullptr)) return std::nullopt;
  // Back substitution on the integer triangle, back in Rational arithmetic.
  RatMatrix x{n, k};
  for (std::size_t col = 0; col < k; ++col) {
    for (std::size_t i = n; i-- > 0;) {
      deadline.check();
      Rational acc{sys.rhs[i][col], BigInt{1}};
      for (std::size_t j = i + 1; j < n; ++j) {
        if (sys.m[i][j].is_zero() || x(j, col).is_zero()) continue;
        acc -= Rational{sys.m[i][j], BigInt{1}} * x(j, col);
      }
      x(i, col) = acc / Rational{sys.m[i][i], BigInt{1}};
    }
  }
  return x;
}

std::optional<std::vector<Rational>> RatMatrix::solve(
    const std::vector<Rational>& b, const Deadline& deadline) const {
  if (b.size() != rows_)
    throw std::invalid_argument("RatMatrix: solve rhs size mismatch");
  RatMatrix col{rows_, 1};
  for (std::size_t i = 0; i < rows_; ++i) col(i, 0) = b[i];
  auto x = solve(col, deadline);
  if (!x) return std::nullopt;
  std::vector<Rational> out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*x)(i, 0);
  return out;
}

std::optional<RatMatrix> RatMatrix::inverse() const {
  if (!is_square())
    throw std::invalid_argument("RatMatrix: inverse requires square");
  return solve(identity(rows_));
}

Rational RatMatrix::quad_form(const std::vector<Rational>& x) const {
  if (!is_square() || x.size() != rows_)
    throw std::invalid_argument("RatMatrix: quad_form shape mismatch");
  Rational acc;
  for (std::size_t i = 0; i < rows_; ++i) {
    if (x[i].is_zero()) continue;
    Rational row_acc;
    for (std::size_t j = 0; j < cols_; ++j) {
      if ((*this)(i, j).is_zero() || x[j].is_zero()) continue;
      row_acc += (*this)(i, j) * x[j];
    }
    acc += x[i] * row_acc;
  }
  return acc;
}

std::vector<Rational> RatMatrix::apply(const std::vector<Rational>& x) const {
  if (x.size() != cols_)
    throw std::invalid_argument("RatMatrix: apply shape mismatch");
  std::vector<Rational> out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      if ((*this)(i, j).is_zero() || x[j].is_zero()) continue;
      out[i] += (*this)(i, j) * x[j];
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const RatMatrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << m(i, j) << (j + 1 == m.cols() ? "" : ", ");
    os << (i + 1 == m.rows() ? "]" : ";\n");
  }
  return os;
}

RatMatrix rat_matrix_from_doubles(const double* data, std::size_t rows,
                                  std::size_t cols, int digits) {
  RatMatrix out{rows, cols};
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = data[i * cols + j];
      out(i, j) = digits > 0 ? Rational::from_double_rounded(v, digits)
                             : Rational::from_double_exact(v);
    }
  return out;
}

}  // namespace spiv::exact
