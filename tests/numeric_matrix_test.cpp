// Tests for spiv::numeric dense matrices, QR, Cholesky, symmetric eigen.
#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

namespace spiv::numeric {
namespace {

Matrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t m) {
  std::normal_distribution<double> d{0.0, 1.0};
  Matrix out{n, m};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = d(rng);
  return out;
}

void expect_near_matrix(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(a(i, j), b(i, j), tol) << "(" << i << "," << j << ")";
}

TEST(NumericMatrix, BasicOps) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{0, 1}, {1, 0}};
  expect_near_matrix(a * b, Matrix{{2, 1}, {4, 3}}, 0);
  expect_near_matrix(a + b, Matrix{{1, 3}, {4, 4}}, 0);
  expect_near_matrix(a - b, Matrix{{1, 1}, {2, 4}}, 0);
  expect_near_matrix(a * 2.0, Matrix{{2, 4}, {6, 8}}, 0);
  expect_near_matrix(-a, Matrix{{-1, -2}, {-3, -4}}, 0);
  expect_near_matrix(a.transposed(), Matrix{{1, 3}, {2, 4}}, 0);
  EXPECT_THROW(a * Matrix(3, 3), std::invalid_argument);
}

TEST(NumericMatrix, ApplyAndQuadForm) {
  Matrix a{{2, 1}, {1, 3}};
  Vector x{1, -1};
  Vector y = a.apply(x);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  EXPECT_DOUBLE_EQ(a.quad_form(x), 3.0);
  Vector xt = a.apply_transposed(x);
  EXPECT_DOUBLE_EQ(xt[0], 1.0);
  EXPECT_DOUBLE_EQ(xt[1], -2.0);
}

TEST(NumericMatrix, BlocksAndNorms) {
  Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix blk = a.block(1, 1, 2, 2);
  expect_near_matrix(blk, Matrix{{5, 6}, {8, 9}}, 0);
  Matrix z{3, 3};
  z.set_block(0, 1, Matrix{{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(z(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(z(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(z(2, 2), 0.0);
  EXPECT_THROW(a.block(2, 2, 2, 2), std::out_of_range);
  EXPECT_DOUBLE_EQ(Matrix::identity(4).frobenius_norm(), 2.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 9.0);
}

TEST(NumericMatrix, SolveInverseDeterminant) {
  Matrix a{{2, 1}, {1, 3}};
  auto x = a.solve(Vector{5, 10});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-14);
  EXPECT_NEAR((*x)[1], 3.0, 1e-14);
  EXPECT_NEAR(a.determinant(), 5.0, 1e-14);
  auto inv = a.inverse();
  ASSERT_TRUE(inv.has_value());
  expect_near_matrix(a * *inv, Matrix::identity(2), 1e-14);
  Matrix singular{{1, 2}, {2, 4}};
  EXPECT_FALSE(singular.inverse().has_value());
  EXPECT_DOUBLE_EQ(singular.determinant(), 0.0);
}

TEST(NumericMatrix, SolveRandomRoundTrip) {
  std::mt19937_64 rng{1};
  for (int iter = 0; iter < 20; ++iter) {
    Matrix a = random_matrix(rng, 8, 8);
    Matrix x_true = random_matrix(rng, 8, 3);
    Matrix b = a * x_true;
    auto x = a.solve(b);
    ASSERT_TRUE(x.has_value());
    expect_near_matrix(*x, x_true, 1e-9);
  }
}

TEST(NumericMatrix, CholeskyPdAndFailure) {
  Matrix pd{{4, 2, 0}, {2, 5, 3}, {0, 3, 6}};
  auto l = pd.cholesky();
  ASSERT_TRUE(l.has_value());
  expect_near_matrix(*l * l->transposed(), pd, 1e-12);
  Matrix indef{{1, 3}, {3, 1}};
  EXPECT_FALSE(indef.cholesky().has_value());
  Matrix psd{{1, 1}, {1, 1}};  // singular PSD -> fails strict PD test
  EXPECT_FALSE(psd.cholesky().has_value());
}

TEST(NumericMatrix, CholeskyRejectsNonFinitePivots) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE((Matrix{{nan, 0}, {0, 1}}.cholesky().has_value()));
  EXPECT_FALSE((Matrix{{1, 0}, {0, nan}}.cholesky().has_value()));
  EXPECT_FALSE((Matrix{{inf, 0}, {0, 1}}.cholesky().has_value()));
  EXPECT_FALSE((Matrix{{1, 0}, {0, inf}}.cholesky().has_value()));
  // A NaN off-diagonal entry poisons the next pivot.
  EXPECT_FALSE((Matrix{{1, nan}, {nan, 1}}.cholesky().has_value()));
}

TEST(NumericQr, ReconstructionAndOrthogonality) {
  std::mt19937_64 rng{3};
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{6, 6}, {8, 4}}) {
    Matrix a = random_matrix(rng, m, n);
    Qr f = qr_decompose(a);
    expect_near_matrix(f.q * f.r, a, 1e-12);
    expect_near_matrix(f.q * f.q.transposed(), Matrix::identity(m), 1e-12);
    // R upper trapezoidal.
    for (std::size_t i = 1; i < m; ++i)
      for (std::size_t j = 0; j < std::min<std::size_t>(i, n); ++j)
        EXPECT_EQ(f.r(i, j), 0.0);
  }
}

TEST(NumericSymmetricEigen, DiagonalizesKnownMatrix) {
  Matrix a{{2, 1}, {1, 2}};
  auto e = symmetric_eigen(a);
  ASSERT_EQ(e.values.size(), 2u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
  // A V = V diag(w)
  Matrix av = a * e.vectors;
  Matrix vd = e.vectors * Matrix::diagonal(e.values);
  expect_near_matrix(av, vd, 1e-12);
}

TEST(NumericSymmetricEigen, RandomPropertyChecks) {
  std::mt19937_64 rng{7};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 3 + iter;
    Matrix a = random_matrix(rng, n, n).symmetrized();
    auto e = symmetric_eigen(a);
    // Ascending order.
    for (std::size_t i = 1; i < n; ++i) EXPECT_LE(e.values[i - 1], e.values[i]);
    // Orthogonality and reconstruction.
    expect_near_matrix(e.vectors * e.vectors.transposed(),
                       Matrix::identity(n), 1e-10);
    Matrix rec = e.vectors * Matrix::diagonal(e.values) * e.vectors.transposed();
    expect_near_matrix(rec, a, 1e-10);
    // Trace preserved.
    double trace = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      trace += a(i, i);
      sum += e.values[i];
    }
    EXPECT_NEAR(trace, sum, 1e-10);
  }
}

TEST(NumericSpectralNorm, MatchesKnownValues) {
  EXPECT_NEAR(spectral_norm(Matrix::identity(5)), 1.0, 1e-12);
  Matrix diag = Matrix::diagonal(Vector{3, -7, 2});
  EXPECT_NEAR(spectral_norm(diag), 7.0, 1e-12);
  // Rank-1: norm = |u||v|.
  Matrix rank1{{2, 4}, {1, 2}};
  EXPECT_NEAR(spectral_norm(rank1), 5.0, 1e-10);
}

TEST(NumericVectors, Helpers) {
  Vector a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  Vector s = a + b;
  EXPECT_DOUBLE_EQ(s[2], 9.0);
  Vector d = b - a;
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  Vector sc = 2.0 * a;
  EXPECT_DOUBLE_EQ(sc[1], 4.0);
  EXPECT_THROW(dot(a, Vector{1}), std::invalid_argument);
}

}  // namespace
}  // namespace spiv::numeric
