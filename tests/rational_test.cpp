// Unit and property tests for spiv::exact::Rational.
#include "exact/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace spiv::exact {
namespace {

TEST(Rational, NormalizationInvariants) {
  Rational r{6, -4};
  EXPECT_EQ(r.num().to_int64(), -3);
  EXPECT_EQ(r.den().to_int64(), 2);
  Rational z{0, 17};
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.den().to_int64(), 1);
  EXPECT_THROW((Rational{1, 0}), std::domain_error);
}

TEST(Rational, ParseForms) {
  EXPECT_EQ(Rational{"3/4"}, (Rational{3, 4}));
  EXPECT_EQ(Rational{"-3/4"}, (Rational{-3, 4}));
  EXPECT_EQ(Rational{"0.25"}, (Rational{1, 4}));
  EXPECT_EQ(Rational{"-1.5e2"}, (Rational{-150}));
  EXPECT_EQ(Rational{"2.5E-3"}, (Rational{1, 400}));
  EXPECT_EQ(Rational{"42"}, (Rational{42}));
  EXPECT_THROW(Rational{"1/0"}, std::domain_error);
  EXPECT_THROW(Rational{"abc"}, std::invalid_argument);
}

TEST(Rational, FieldOps) {
  Rational a{1, 3}, b{1, 6};
  EXPECT_EQ(a + b, (Rational{1, 2}));
  EXPECT_EQ(a - b, (Rational{1, 6}));
  EXPECT_EQ(a * b, (Rational{1, 18}));
  EXPECT_EQ(a / b, (Rational{2}));
  EXPECT_EQ(-a, (Rational{-1, 3}));
  EXPECT_EQ(a.reciprocal(), (Rational{3}));
  EXPECT_THROW(Rational{}.reciprocal(), std::domain_error);
  EXPECT_THROW(a / Rational{}, std::domain_error);
}

TEST(Rational, CrossCancellingMulDiv) {
  // Results must stay in lowest terms with positive denominators even when
  // all the cancellation happens across the operands.
  EXPECT_EQ(Rational(4, 9) * Rational(3, 8), Rational(1, 6));
  EXPECT_EQ(Rational(-4, 9) * Rational(3, 8), Rational(-1, 6));
  EXPECT_EQ(Rational(4, 9) / Rational(8, 3), Rational(1, 6));
  EXPECT_EQ(Rational(4, 9) / Rational(-8, 3), Rational(-1, 6));
  EXPECT_EQ(Rational(0) * Rational(7, 3), Rational(0));
  EXPECT_EQ(Rational(0) / Rational(7, 3), Rational(0));
  EXPECT_EQ((Rational(0) / Rational(7, 3)).den(), BigInt{1});
  // Aliasing: r *= r and r /= r.
  Rational r{6, 10};
  r *= r;
  EXPECT_EQ(r, Rational(9, 25));
  r /= r;
  EXPECT_EQ(r, Rational(1));
  // Huge common factors cancel exactly.
  const Rational big{BigInt::pow10(40) * BigInt{3}, BigInt{7}};
  EXPECT_EQ(big * big.reciprocal(), Rational(1));
  const Rational x{BigInt{21}, BigInt::pow10(40)};
  EXPECT_EQ(big * x, Rational(9, 1));
}

TEST(Rational, Ordering) {
  EXPECT_LT((Rational{1, 3}), (Rational{1, 2}));
  EXPECT_LT((Rational{-1, 2}), (Rational{-1, 3}));
  EXPECT_GT((Rational{5, 1}), (Rational{9, 2}));
  EXPECT_EQ((Rational{2, 4}), (Rational{1, 2}));
}

TEST(Rational, PowIncludingNegative) {
  EXPECT_EQ((Rational{2, 3}).pow(3), (Rational{8, 27}));
  EXPECT_EQ((Rational{2, 3}).pow(-2), (Rational{9, 4}));
  EXPECT_EQ((Rational{5}).pow(0), (Rational{1}));
}

TEST(Rational, FromDoubleExactIsExact) {
  for (double v : {0.5, -0.125, 3.0, 1.0 / 3.0, 0.1, -1e-20, 12345.6789}) {
    Rational r = Rational::from_double_exact(v);
    EXPECT_DOUBLE_EQ(r.to_double(), v);
  }
  EXPECT_TRUE(Rational::from_double_exact(0.0).is_zero());
  EXPECT_EQ(Rational::from_double_exact(0.5), (Rational{1, 2}));
  EXPECT_THROW(Rational::from_double_exact(std::nan("")), std::domain_error);
  EXPECT_THROW(Rational::from_double_exact(INFINITY), std::domain_error);
}

TEST(Rational, FromDoubleRoundedSignificantFigures) {
  // The paper rounds candidate matrices to k significant figures.
  EXPECT_EQ(Rational::from_double_rounded(0.0123456, 3), Rational{"0.0123"});
  EXPECT_EQ(Rational::from_double_rounded(-98765.4, 2), Rational{"-99000"});
  EXPECT_EQ(Rational::from_double_rounded(1.0, 4), (Rational{1}));
  EXPECT_TRUE(Rational::from_double_rounded(0.0, 5).is_zero());
  EXPECT_THROW(Rational::from_double_rounded(1.0, 0), std::invalid_argument);
  // Rounding at 10 digits then converting to double stays very close.
  const double v = 0.12345678901234;
  EXPECT_NEAR(Rational::from_double_rounded(v, 10).to_double(), v, 1e-10);
}

TEST(Rational, ToDoubleHugeRatios) {
  Rational tiny{BigInt{1}, BigInt::pow10(40)};
  EXPECT_NEAR(tiny.to_double() * 1e40, 1.0, 1e-9);
  Rational big{BigInt::pow10(40), BigInt{3}};
  EXPECT_NEAR(big.to_double() / (1e40 / 3.0), 1.0, 1e-9);
}

TEST(Rational, IsqrtExactAndBounds) {
  EXPECT_EQ(isqrt(BigInt{0}).to_int64(), 0);
  EXPECT_EQ(isqrt(BigInt{1}).to_int64(), 1);
  EXPECT_EQ(isqrt(BigInt{15}).to_int64(), 3);
  EXPECT_EQ(isqrt(BigInt{16}).to_int64(), 4);
  EXPECT_EQ(isqrt(BigInt{"1000000000000000000000000"}).to_string(),
            "1000000000000");
  EXPECT_THROW(isqrt(BigInt{-1}), std::domain_error);
  std::mt19937_64 rng{11};
  for (int i = 0; i < 100; ++i) {
    BigInt v{static_cast<std::int64_t>(rng() >> 1)};
    BigInt s = isqrt(v);
    EXPECT_LE(s * s, v);
    EXPECT_GT((s + BigInt{1}) * (s + BigInt{1}), v);
  }
}

class RationalFieldLaws : public ::testing::TestWithParam<unsigned> {};

TEST_P(RationalFieldLaws, RandomizedAgainstDoubles) {
  std::mt19937_64 rng{GetParam()};
  std::uniform_int_distribution<std::int64_t> num{-10000, 10000};
  std::uniform_int_distribution<std::int64_t> den{1, 10000};
  for (int iter = 0; iter < 300; ++iter) {
    Rational a{num(rng), den(rng)}, b{num(rng), den(rng)}, c{num(rng), den(rng)};
    // Field laws.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + (-a), Rational{});
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.reciprocal(), Rational{1});
    }
    // Consistency with floating point to within rounding.
    EXPECT_NEAR((a * b).to_double(), a.to_double() * b.to_double(), 1e-6);
    // Ordering is total and consistent with doubles when far apart.
    if (std::abs(a.to_double() - b.to_double()) > 1e-9) {
      EXPECT_EQ(a < b, a.to_double() < b.to_double());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalFieldLaws,
                         ::testing::Values(10u, 20u, 30u));

}  // namespace
}  // namespace spiv::exact
