// Tests for spiv::numeric dense matrices, QR, the SPD kernel and its
// Cholesky wrapper, symmetric eigen.
#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

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

/// An exactly symmetric positive-definite n x n matrix.
Matrix random_spd(std::mt19937_64& rng, std::size_t n) {
  const Matrix b = random_matrix(rng, n, n);
  return (b * b.transposed() + Matrix::identity(n)).symmetrized();
}

TEST(NumericSpdKernel, FactorRejectsNonFinitePivotsAndSolveLeavesBAlone) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The kernel reads the upper triangle only, so the off-diagonal NaN sits
  // there; the lower triangle holds a finite decoy.
  for (const Matrix& bad :
       {Matrix{{nan, 0}, {0, 1}}, Matrix{{1, 0}, {0, nan}},
        Matrix{{inf, 0}, {0, 1}}, Matrix{{1, 0}, {0, inf}},
        Matrix{{-inf, 0}, {0, 1}}, Matrix{{1, 0}, {0, -inf}},
        Matrix{{1, nan}, {0, 1}}}) {
    Matrix m = bad;
    EXPECT_FALSE(cholesky_in_place(m)) << bad;
    // The full solve the SDP Newton step uses: an infinite pivot no longer
    // "factors", and b stays as it was.
    Matrix h = bad;
    Vector b{1.0, 2.0};
    EXPECT_FALSE(cholesky_solve(h, b)) << bad;
    EXPECT_EQ(b, (Vector{1.0, 2.0}));
  }
  Matrix rect{2, 3};
  EXPECT_THROW((void)cholesky_in_place(rect), std::invalid_argument);
}

TEST(NumericSpdKernel, FactorIsTheWrapperFactorTransposedBitForBit) {
  std::mt19937_64 rng{28};
  for (std::size_t n = 1; n <= 40; ++n) {
    const Matrix a = random_spd(rng, n);
    const auto l = a.cholesky();
    ASSERT_TRUE(l.has_value()) << n;
    Matrix u = a;
    ASSERT_TRUE(cholesky_in_place(u)) << n;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (j >= i)
          EXPECT_EQ(u(i, j), (*l)(j, i)) << n << ": (" << i << "," << j << ")";
        else  // the strict lower triangle is left as it was
          EXPECT_EQ(u(i, j), a(i, j)) << n << ": (" << i << "," << j << ")";
      }
    // Shifted indefinite: both refuse.
    Matrix bad = a - Matrix::identity(n) * (2.0 * a.max_abs() * n);
    EXPECT_FALSE(bad.cholesky().has_value()) << n;
    EXPECT_FALSE(cholesky_in_place(bad)) << n;
  }
}

TEST(NumericSpdKernel, SolveMatchesTheTrueSolution) {
  std::mt19937_64 rng{29};
  for (std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 21}) {
    const Matrix a = random_spd(rng, n);
    const Vector x_true = random_matrix(rng, n, 1).data();
    Vector b = a.apply(x_true);
    Matrix h = a;
    ASSERT_TRUE(cholesky_solve(h, b)) << n;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(b[i], x_true[i], 1e-9) << n << ": " << i;
  }
}

/// The row-oriented loop the blocked kernel replaced, verbatim: the
/// reference every entry of the blocked factor must equal bit for bit.
bool row_loop_factor(Matrix& m) {
  const std::size_t n = m.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double* uj = &m(j, 0);
    if (!(uj[j] > 0.0) || std::isinf(uj[j])) return false;
    uj[j] = std::sqrt(uj[j]);
    const double inv = 1.0 / uj[j];
    for (std::size_t k = j + 1; k < n; ++k) uj[k] *= inv;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double f = uj[i];
      double* ui = &m(i, 0);
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

/// `a` with a finite decoy in every strict-lower entry, which the factor
/// must leave as it is.
Matrix with_lower_decoys(Matrix a) {
  for (std::size_t i = 1; i < a.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      a(i, j) = -1.0 - static_cast<double>(i * a.cols() + j);
  return a;
}

TEST(NumericSpdKernel, BlockedFactorIsTheRowLoopBitForBit) {
  // 1..72 covers every residue mod 4 around one panel (15, 16, 17) and two
  // (31, 32, 33); 92/172/232 are the size-10/15/18 Newton systems.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 72; ++n) sizes.push_back(n);
  for (std::size_t n : {92, 172, 232}) sizes.push_back(n);
  std::mt19937_64 rng{29};
  for (std::size_t n : sizes) {
    const Matrix a = with_lower_decoys(random_spd(rng, n));
    Matrix want = a;
    ASSERT_TRUE(row_loop_factor(want)) << n;
    Matrix got = a;
    ASSERT_TRUE(cholesky_in_place(got)) << n;
    std::size_t differ = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (std::bit_cast<std::uint64_t>(got(i, j)) !=
            std::bit_cast<std::uint64_t>(want(i, j)))
          ++differ;
    EXPECT_EQ(differ, 0u) << n;
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j)
        ASSERT_EQ(got(i, j), a(i, j)) << n << ": (" << i << "," << j << ")";
  }
}

TEST(NumericSpdKernel, BlockedFactorRefusesPastTheFirstPanels) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng{30};
  const std::size_t n = 64;
  const Matrix spd = random_spd(rng, n);
  // SPD in its leading 40x40, indefinite after: pivot 50 goes negative.
  Matrix indefinite = spd;
  indefinite(50, 50) = -indefinite(50, 50);
  // A non-finite upper entry inside a 4x4 tile of the first panels'
  // trailing update; it poisons pivot 50 through row 40.
  std::vector<Matrix> bad{indefinite};
  for (double x : {nan, inf, -inf}) {
    Matrix m = spd;
    m(40, 50) = x;
    bad.push_back(m);
  }
  for (const Matrix& m : bad) {
    Matrix ref = m;
    EXPECT_FALSE(row_loop_factor(ref));
    Matrix u = m;
    EXPECT_FALSE(cholesky_in_place(u));
    Matrix h = m;
    const Vector before(n, 1.5);
    Vector b = before;
    EXPECT_FALSE(cholesky_solve(h, b));
    EXPECT_EQ(b, before);
  }
  // The leading 40x40 alone factors.
  Matrix lead = spd.block(0, 0, 40, 40);
  EXPECT_TRUE(cholesky_in_place(lead));
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
  EXPECT_THROW((void)dot(a, Vector{1}), std::invalid_argument);
}

}  // namespace
}  // namespace spiv::numeric
