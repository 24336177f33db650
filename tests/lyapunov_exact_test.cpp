// Tests for the exact (eq-smt) Lyapunov equation solver.
#include "exact/lyapunov_exact.hpp"

#include <gtest/gtest.h>

#include <random>

namespace spiv::exact {
namespace {

Rational q(std::int64_t n, std::int64_t d = 1) { return Rational{n, d}; }

TEST(VechIndex, OrderingAndBounds) {
  const std::size_t n = 4;
  // Column-stacked lower triangle: (0,0)(1,0)(2,0)(3,0)(1,1)(2,1)...
  EXPECT_EQ(vech_index(0, 0, n), 0u);
  EXPECT_EQ(vech_index(3, 0, n), 3u);
  EXPECT_EQ(vech_index(1, 1, n), 4u);
  EXPECT_EQ(vech_index(3, 3, n), 9u);
  EXPECT_EQ(vech_index(1, 3, n), vech_index(3, 1, n));  // symmetric access
}

TEST(Vech, RoundTrip) {
  RatMatrix m{{q(1), q(2), q(3)}, {q(2), q(4), q(5)}, {q(3), q(5), q(6)}};
  auto v = vech(m);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(unvech(v, 3), m);
}

TEST(LyapunovExact, SolvesDiagonalSystem) {
  // A = diag(-1, -2): A^T P + P A + Q = 0 with Q = I gives P = diag(1/2, 1/4).
  RatMatrix a{{q(-1), q(0)}, {q(0), q(-2)}};
  auto p = solve_lyapunov_exact(a, RatMatrix::identity(2));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ((*p)(0, 0), q(1, 2));
  EXPECT_EQ((*p)(1, 1), q(1, 4));
  EXPECT_EQ((*p)(0, 1), q(0));
  EXPECT_TRUE(lyapunov_residual(a, *p, RatMatrix::identity(2)) ==
              RatMatrix(2, 2));
}

TEST(LyapunovExact, ResidualIsExactlyZeroOnRandomStableSystems) {
  std::mt19937_64 rng{5};
  std::uniform_int_distribution<std::int64_t> d{-4, 4};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 3 + iter % 3;
    // Diagonally dominant negative matrices are Hurwitz.
    RatMatrix a{n, n};
    for (std::size_t i = 0; i < n; ++i) {
      Rational row_sum;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        a(i, j) = Rational{d(rng)};
        row_sum += a(i, j).abs();
      }
      a(i, i) = -(row_sum + Rational{1 + static_cast<std::int64_t>(iter)});
    }
    RatMatrix queue = RatMatrix::identity(n);
    auto p = solve_lyapunov_exact(a, queue);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->is_symmetric());
    EXPECT_EQ(lyapunov_residual(a, *p, queue), RatMatrix(n, n));
    // P of a Hurwitz system with Q > 0 must be positive definite:
    // all leading principal minors positive (Sylvester).
    for (const auto& minor : p->leading_principal_minors())
      EXPECT_GT(minor, q(0));
  }
}

TEST(LyapunovExact, SingularOperatorReturnsNullopt) {
  // A with eigenvalues {1, -1}: A and -A share an eigenvalue, so the
  // Lyapunov operator is singular.
  RatMatrix a{{q(1), q(0)}, {q(0), q(-1)}};
  EXPECT_FALSE(solve_lyapunov_exact(a, RatMatrix::identity(2)).has_value());
}

TEST(LyapunovExact, RejectsBadShapes) {
  RatMatrix a{2, 3};
  EXPECT_THROW(solve_lyapunov_exact(a, RatMatrix::identity(2)),
               std::invalid_argument);
  RatMatrix nonsym{{q(0), q(1)}, {q(0), q(0)}};
  RatMatrix good_a{{q(-1), q(0)}, {q(0), q(-1)}};
  EXPECT_THROW(solve_lyapunov_exact(good_a, nonsym), std::invalid_argument);
}

TEST(LyapunovExact, HonorsDeadline) {
  // An already-expired deadline must abort the solve.
  RatMatrix a{{q(-3), q(1)}, {q(0), q(-2)}};
  Deadline expired = Deadline::after_seconds(-1.0);
  EXPECT_THROW(solve_lyapunov_exact(a, RatMatrix::identity(2), expired),
               TimeoutError);
}

TEST(LyapunovOperator, MatchesDirectComputationOnBasis) {
  RatMatrix a{{q(-2), q(1)}, {q(0), q(-1)}};
  RatMatrix op = lyapunov_operator_vech(a);
  ASSERT_EQ(op.rows(), 3u);
  // Apply operator to vech(P) for a random symmetric P and compare with
  // direct A^T P + P A.
  RatMatrix p{{q(3), q(-1)}, {q(-1), q(5)}};
  auto image = op.apply(vech(p));
  RatMatrix expected = a.transposed() * p + p * a;
  EXPECT_EQ(unvech(image, 2), expected);
}

TEST(LyapunovOperator, SparseAssemblyMatchesDefinitionOnRandomSystems) {
  // The operator is assembled from the 4-term closed form per basis matrix
  // (not dense products); check it against the defining identity
  // op * vech(P) == vech(A^T P + P A) for generic A and P.
  std::mt19937_64 rng{23};
  std::uniform_int_distribution<std::int64_t> d{-9, 9};
  std::uniform_int_distribution<std::int64_t> den{1, 5};
  for (std::size_t n : {std::size_t{3}, std::size_t{6}, std::size_t{9}}) {
    RatMatrix a{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = Rational{d(rng), den(rng)};
    RatMatrix p{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        p(i, j) = Rational{d(rng), den(rng)};
        p(j, i) = p(i, j);
      }
    RatMatrix op = lyapunov_operator_vech(a);
    EXPECT_EQ(unvech(op.apply(vech(p)), n), a.transposed() * p + p * a)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace spiv::exact
