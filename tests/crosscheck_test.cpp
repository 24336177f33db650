// Cross-checks between the exact (rational) and numeric (double) layers:
// the same computation done both ways must agree to floating-point
// accuracy.  These catch sign conventions and indexing bugs that
// single-layer tests cannot see.
#include <gtest/gtest.h>

#include <random>

#include "exact/lyapunov_exact.hpp"
#include "exact/matrix.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lyapunov.hpp"
#include "numeric/svd.hpp"
#include "smt/charpoly.hpp"

namespace spiv {
namespace {

using exact::RatMatrix;
using exact::Rational;
using numeric::Matrix;

/// A rational matrix with small integer entries and its double twin.
std::pair<RatMatrix, Matrix> random_pair(std::mt19937_64& rng, std::size_t n,
                                         std::size_t m) {
  std::uniform_int_distribution<std::int64_t> num{-8, 8};
  std::uniform_int_distribution<std::int64_t> den{1, 4};
  RatMatrix r{n, m};
  Matrix d{n, m};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      Rational q{num(rng), den(rng)};
      r(i, j) = q;
      d(i, j) = q.to_double();
    }
  return {std::move(r), std::move(d)};
}

class CrossCheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrossCheck, DeterminantsAgree) {
  std::mt19937_64 rng{GetParam()};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 2 + iter % 6;
    auto [r, d] = random_pair(rng, n, n);
    EXPECT_NEAR(r.determinant().to_double(), d.determinant(),
                1e-8 * (1.0 + std::abs(d.determinant())));
  }
}

TEST_P(CrossCheck, SolvesAgree) {
  std::mt19937_64 rng{GetParam() + 1};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 2 + iter % 6;
    auto [r, d] = random_pair(rng, n, n);
    if (r.determinant().is_zero()) continue;
    std::vector<Rational> b_exact(n);
    numeric::Vector b_num(n);
    std::uniform_int_distribution<std::int64_t> num{-5, 5};
    for (std::size_t i = 0; i < n; ++i) {
      b_exact[i] = Rational{num(rng)};
      b_num[i] = b_exact[i].to_double();
    }
    auto xe = r.solve(b_exact);
    auto xn = d.solve(b_num);
    ASSERT_TRUE(xe.has_value());
    ASSERT_TRUE(xn.has_value());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR((*xe)[i].to_double(), (*xn)[i],
                  1e-7 * (1.0 + std::abs((*xn)[i])));
  }
}

TEST_P(CrossCheck, CharPolyRootsMatchNumericEigenvalues) {
  std::mt19937_64 rng{GetParam() + 2};
  for (int iter = 0; iter < 6; ++iter) {
    const std::size_t n = 2 + iter % 4;
    auto [r, d] = random_pair(rng, n, n);
    auto coeffs = smt::characteristic_polynomial_faddeev(r);
    // p(lambda) should vanish (approximately) at every numeric eigenvalue.
    for (auto lambda : numeric::eigenvalues(d)) {
      std::complex<double> acc{0.0, 0.0};
      std::complex<double> power{1.0, 0.0};
      double scale = 0.0;
      for (std::size_t k = 0; k < coeffs.size(); ++k) {
        acc += coeffs[k].to_double() * power;
        scale += std::abs(coeffs[k].to_double()) * std::abs(power);
        power *= lambda;
      }
      EXPECT_LT(std::abs(acc), 1e-7 * (1.0 + scale));
    }
  }
}

TEST_P(CrossCheck, LyapunovSolutionsAgree) {
  std::mt19937_64 rng{GetParam() + 3};
  for (int iter = 0; iter < 5; ++iter) {
    const std::size_t n = 2 + iter % 4;
    // Diagonally dominant stable matrices keep both solvers happy.
    auto [r, d] = random_pair(rng, n, n);
    Rational shift{20};
    for (std::size_t i = 0; i < n; ++i) {
      r(i, i) -= shift;
      d(i, i) -= shift.to_double();
    }
    auto pe = exact::solve_lyapunov_exact(r, RatMatrix::identity(n));
    auto pn = numeric::solve_lyapunov(d, Matrix::identity(n));
    ASSERT_TRUE(pe.has_value());
    ASSERT_TRUE(pn.has_value());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_NEAR((*pe)(i, j).to_double(), (*pn)(i, j),
                    1e-8 * (1.0 + std::abs((*pn)(i, j))));
  }
}

TEST_P(CrossCheck, MinorsSignsMatchEigenvalueSigns) {
  // Sylvester: for symmetric M, #negative eigenvalues is determined by the
  // sign pattern of leading principal minors (when all are nonzero).
  std::mt19937_64 rng{GetParam() + 4};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 2 + iter % 5;
    auto [r0, d0] = random_pair(rng, n, n);
    RatMatrix r = r0.symmetrized();
    Matrix d = d0.symmetrized();
    auto minors = r.leading_principal_minors();
    bool any_zero = false;
    for (const auto& m : minors) any_zero |= m.is_zero();
    if (any_zero) continue;
    // Count sign agreements: PD <=> all minors positive <=> all eigs > 0.
    bool all_pos = true;
    for (const auto& m : minors) all_pos &= m.sign() > 0;
    auto eig = numeric::symmetric_eigen(d);
    const bool numerically_pd = eig.values.front() > 1e-9;
    if (std::abs(eig.values.front()) > 1e-7) {  // avoid borderline flips
      EXPECT_EQ(all_pos, numerically_pd) << "iter " << iter;
    }
  }
}

TEST_P(CrossCheck, SpectralNormMatchesSvd) {
  std::mt19937_64 rng{GetParam() + 5};
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t n = 3 + iter % 5;
    auto [r, d] = random_pair(rng, n + 1, n);
    (void)r;
    auto svd = numeric::svd_decompose(d);
    EXPECT_NEAR(numeric::spectral_norm(d), svd.singular_values.front(),
                1e-9 * (1.0 + svd.singular_values.front()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossCheck, ::testing::Values(100u, 200u, 300u));

}  // namespace
}  // namespace spiv
