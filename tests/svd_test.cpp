// Tests for the one-sided Jacobi SVD.
#include "numeric/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>
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

TEST(Svd, DiagonalMatrix) {
  Matrix a = Matrix::diagonal(Vector{3, -1, 2});
  Svd s = svd_decompose(a);
  EXPECT_NEAR(s.singular_values[0], 3.0, 1e-12);
  EXPECT_NEAR(s.singular_values[1], 2.0, 1e-12);
  EXPECT_NEAR(s.singular_values[2], 1.0, 1e-12);
}

TEST(Svd, ReconstructionAndOrthogonality) {
  std::mt19937_64 rng{5};
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{5, 5},
                      {8, 5},
                      {21, 18}}) {
    Matrix a = random_matrix(rng, m, n);
    Svd s = svd_decompose(a);
    // Descending order, nonnegative.
    for (std::size_t i = 1; i < n; ++i)
      EXPECT_LE(s.singular_values[i], s.singular_values[i - 1]);
    EXPECT_GE(s.singular_values.back(), 0.0);
    // A = U S V^T
    Matrix rec = s.u * Matrix::diagonal(s.singular_values) * s.v.transposed();
    EXPECT_LT((rec - a).frobenius_norm(), 1e-10 * (1.0 + a.frobenius_norm()));
    // U column-orthonormal, V orthogonal.
    Matrix utu = s.u.transposed() * s.u;
    EXPECT_LT((utu - Matrix::identity(n)).frobenius_norm(), 1e-10);
    Matrix vtv = s.v.transposed() * s.v;
    EXPECT_LT((vtv - Matrix::identity(n)).frobenius_norm(), 1e-10);
  }
}

TEST(Svd, FrobeniusNormIdentity) {
  std::mt19937_64 rng{6};
  Matrix a = random_matrix(rng, 7, 4);
  Svd s = svd_decompose(a);
  double sum_sq = 0.0;
  for (double sv : s.singular_values) sum_sq += sv * sv;
  EXPECT_NEAR(std::sqrt(sum_sq), a.frobenius_norm(), 1e-10);
}

TEST(Svd, RequiresTallMatrix) {
  EXPECT_THROW(svd_decompose(Matrix{2, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace spiv::numeric
