// Unit and property tests for spiv::exact::BigInt.
#include "exact/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace spiv::exact {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.bit_length(), 0u);
}

TEST(BigInt, FromInt64RoundTrips) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{42}, std::int64_t{-123456789},
                         std::int64_t{1} << 40,
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    BigInt b{v};
    EXPECT_TRUE(b.fits_int64()) << v;
    EXPECT_EQ(b.to_int64(), v);
    EXPECT_EQ(b.to_string(), std::to_string(v));
  }
}

TEST(BigInt, ParseRoundTrips) {
  const std::string big = "123456789012345678901234567890123456789";
  BigInt b{big};
  EXPECT_EQ(b.to_string(), big);
  BigInt neg{"-" + big};
  EXPECT_EQ(neg.to_string(), "-" + big);
  EXPECT_FALSE(b.fits_int64());
  EXPECT_THROW((void)b.to_int64(), std::range_error);
}

TEST(BigInt, ParseRejectsGarbage) {
  EXPECT_THROW(BigInt{""}, std::invalid_argument);
  EXPECT_THROW(BigInt{"-"}, std::invalid_argument);
  EXPECT_THROW(BigInt{"12a3"}, std::invalid_argument);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt a{"4294967295"};  // 2^32 - 1
  BigInt one{1};
  EXPECT_EQ((a + one).to_string(), "4294967296");
  BigInt b{"18446744073709551615"};  // 2^64 - 1
  EXPECT_EQ((b + one).to_string(), "18446744073709551616");
}

TEST(BigInt, SubtractionSignHandling) {
  BigInt a{5}, b{9};
  EXPECT_EQ((a - b).to_int64(), -4);
  EXPECT_EQ((b - a).to_int64(), 4);
  EXPECT_EQ((a - a).to_int64(), 0);
  EXPECT_TRUE((a - a).is_zero());
}

TEST(BigInt, MultiplicationLarge) {
  BigInt a{"123456789012345678901234567890"};
  BigInt b{"987654321098765432109876543210"};
  EXPECT_EQ((a * b).to_string(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt{7} / BigInt{2}).to_int64(), 3);
  EXPECT_EQ((BigInt{-7} / BigInt{2}).to_int64(), -3);
  EXPECT_EQ((BigInt{7} / BigInt{-2}).to_int64(), -3);
  EXPECT_EQ((BigInt{-7} / BigInt{-2}).to_int64(), 3);
  EXPECT_EQ((BigInt{7} % BigInt{2}).to_int64(), 1);
  EXPECT_EQ((BigInt{-7} % BigInt{2}).to_int64(), -1);
  EXPECT_EQ((BigInt{7} % BigInt{-2}).to_int64(), 1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{0}, std::domain_error);
  EXPECT_THROW(BigInt{1} % BigInt{0}, std::domain_error);
}

TEST(BigInt, MultiLimbDivisionKnuthCases) {
  // Exercises the add-back branch region: numerator close to divisor * base.
  BigInt num{"340282366920938463463374607431768211456"};  // 2^128
  BigInt den{"18446744073709551616"};                     // 2^64
  EXPECT_EQ((num / den).to_string(), "18446744073709551616");
  EXPECT_TRUE((num % den).is_zero());

  BigInt a{"123456789123456789123456789123456789"};
  BigInt b{"98765432109876543210"};
  BigInt q = a / b;
  BigInt r = a % b;
  EXPECT_EQ((q * b + r), a);
  EXPECT_LT(r.abs(), b.abs());
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt{-5}, BigInt{3});
  EXPECT_LT(BigInt{-5}, BigInt{-3});
  EXPECT_GT(BigInt{"100000000000000000000"}, BigInt{"99999999999999999999"});
  EXPECT_EQ(BigInt{7}, BigInt{"7"});
}

TEST(BigInt, GcdBasics) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{0}).to_int64(), 0);
  EXPECT_EQ(BigInt::gcd(BigInt{"1000000007"}, BigInt{"998244353"}).to_int64(), 1);
}

TEST(BigInt, GcdSteinEdgeCases) {
  // Power-of-two common factors (the binary algorithm's shift bookkeeping).
  EXPECT_EQ(BigInt::gcd(BigInt{1024}, BigInt{4096}).to_int64(), 1024);
  EXPECT_EQ(BigInt::gcd(BigInt{3} * BigInt{1024}, BigInt{5} * BigInt{4096})
                .to_int64(),
            1024);
  // Equal operands, including multi-limb.
  const BigInt big{"123456789012345678901234567890"};
  EXPECT_EQ(BigInt::gcd(big, big), big);
  EXPECT_EQ(BigInt::gcd(big, big.negated()), big);
  // Common factor spanning limbs: g has > 64 bits, so the word-size kernel
  // must not engage until it has been divided out.
  const BigInt g = BigInt::pow10(25);  // ~84 bits
  EXPECT_EQ(BigInt::gcd(g * BigInt{7}, g * BigInt{9}), g);
  // Coprime multi-limb pair: both odd and differing by 2, so the gcd is 1.
  EXPECT_TRUE(
      BigInt::gcd(BigInt::pow10(30) + BigInt{1}, BigInt::pow10(30) + BigInt{3})
          .is_one());
}

TEST(BigInt, GcdMatchesEuclidReference) {
  std::mt19937_64 rng{909};
  std::uniform_int_distribution<std::int64_t> dist{-1'000'000'000,
                                                   1'000'000'000};
  for (int iter = 0; iter < 200; ++iter) {
    const std::int64_t a = dist(rng);
    const std::int64_t b = dist(rng);
    std::int64_t x = a < 0 ? -a : a;
    std::int64_t y = b < 0 ? -b : b;
    while (y != 0) {
      const std::int64_t t = x % y;
      x = y;
      y = t;
    }
    EXPECT_EQ(BigInt::gcd(BigInt{a}, BigInt{b}).to_int64(), x)
        << a << ", " << b;
  }
  // And divisibility on operands far beyond one limb.
  for (int iter = 0; iter < 20; ++iter) {
    BigInt u{dist(rng)};
    BigInt v{dist(rng)};
    const BigInt scale = BigInt::pow10(18 + iter);
    const BigInt g = BigInt::gcd(u * scale, v * scale);
    EXPECT_TRUE((u * scale % g).is_zero());
    EXPECT_TRUE((v * scale % g).is_zero());
    EXPECT_TRUE((g % scale).is_zero());  // scale divides both, so also g
  }
}

TEST(BigInt, PowAndPow10) {
  EXPECT_EQ(BigInt{2}.pow(10).to_int64(), 1024);
  EXPECT_EQ(BigInt{10}.pow(0).to_int64(), 1);
  EXPECT_EQ(BigInt::pow10(20).to_string(), "100000000000000000000");
  EXPECT_EQ(BigInt{-3}.pow(3).to_int64(), -27);
  EXPECT_EQ(BigInt{-3}.pow(4).to_int64(), 81);
}

TEST(BigInt, Shifts) {
  BigInt one{1};
  EXPECT_EQ(one.shifted_left(100).shifted_right(100), one);
  EXPECT_EQ(one.shifted_left(100).bit_length(), 101u);
  EXPECT_EQ(BigInt{5}.shifted_right(1).to_int64(), 2);
  EXPECT_EQ(BigInt{-8}.shifted_left(2).to_int64(), -32);
  EXPECT_TRUE(BigInt{3}.shifted_right(10).is_zero());
}

TEST(BigInt, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigInt{12345}.to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt{-12345}.to_double(), -12345.0);
  BigInt huge = BigInt{1}.shifted_left(200);
  EXPECT_NEAR(huge.to_double() / std::ldexp(1.0, 200), 1.0, 1e-12);
}

// --- property tests against int64/double reference arithmetic ---

TEST(BigInt, InlineToHeapBoundaryArithmetic) {
  // The limb storage keeps 4 x 32-bit limbs inline and moves to pooled
  // heap blocks beyond that; exercise sizes straddling that boundary in
  // both directions (grow via multiply, shrink via divide).
  const BigInt base{"4294967295"};  // 2^32 - 1, one limb
  BigInt acc{1};
  std::vector<BigInt> stages;
  for (int limbs = 1; limbs <= 9; ++limbs) {
    acc *= base;
    stages.push_back(acc);
  }
  for (int limbs = 9; limbs-- > 1;) {
    auto [quot, rem] = BigInt::div_mod(acc, base);
    EXPECT_TRUE(rem.is_zero()) << limbs;
    acc = quot;
    EXPECT_EQ(acc, stages[static_cast<std::size_t>(limbs) - 1]) << limbs;
  }
  // Add/sub round trip across the boundary (3 <-> 5 limbs).
  const BigInt big = stages[4], small = stages[2];
  EXPECT_EQ(big + small - small, big);
  EXPECT_EQ(small + big - big, small);
  EXPECT_EQ((big - big), BigInt{});
}

TEST(BigInt, MovedFromValuesAreReusable) {
  BigInt heap = BigInt{"123456789123456789"}.pow(8);  // well past 4 limbs
  const BigInt copy = heap;
  BigInt stolen = std::move(heap);
  EXPECT_EQ(stolen, copy);
  heap = BigInt{42};  // assign into the moved-from object
  EXPECT_EQ(heap.to_int64(), 42);
  heap = stolen * BigInt{2};
  EXPECT_EQ(heap, copy + copy);
}

TEST(BigInt, SmallOperandFastPathsMatchWideReference) {
  // +=, -=, *=, div_mod and gcd all special-case operands that fit two
  // limbs; compare against the same computation routed through multi-limb
  // values (scaled up then back down).
  std::mt19937_64 rng{77};
  const BigInt scale = BigInt{"340282366920938463463374607431768211456"};  // 2^128
  std::uniform_int_distribution<std::int64_t> dist{-1000000000, 1000000000};
  for (int iter = 0; iter < 100; ++iter) {
    const std::int64_t x = dist(rng);
    const std::int64_t y = dist(rng);
    if (y == 0) continue;
    const BigInt bx{x}, by{y};
    EXPECT_EQ((bx * scale + by * scale), (bx + by) * scale);
    EXPECT_EQ((bx * scale - by * scale), (bx - by) * scale);
    auto [q_small, r_small] = BigInt::div_mod(bx, by);
    auto [q_wide, r_wide] = BigInt::div_mod(bx * scale, by * scale);
    EXPECT_EQ(q_small, q_wide);
    EXPECT_EQ(r_small * scale, r_wide);
    EXPECT_EQ(BigInt::gcd(bx, by) * scale, BigInt::gcd(bx * scale, by * scale));
  }
}

/// A uniformly random magnitude of exactly `limbs` limbs (top limb nonzero).
BigInt random_limbs(std::mt19937_64& rng, std::size_t limbs) {
  BigInt acc;
  for (std::size_t i = 0; i < limbs; ++i) {
    std::int64_t limb = static_cast<std::int64_t>(rng() & 0xffffffffu);
    if (i == 0 && limb == 0) limb = 1;
    acc = acc.shifted_left(32) + BigInt{limb};
  }
  return acc;
}

TEST(BigIntDivExact, MatchesQuotientAcrossSignsAndSizes) {
  // divexact(q*d, d) == q == (q*d)/d for limb counts 1..~300 (past the
  // Karatsuba threshold), divisors with whole zero low limbs plus odd bit
  // shifts, and all four sign combinations.
  std::mt19937_64 rng{2024};
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 8, 16, 31, 64, 129, 300};
  const BigInt two40 = BigInt{1}.shifted_left(40);
  for (std::size_t qs : sizes)
    for (std::size_t ds : sizes) {
      const BigInt odd = random_limbs(rng, ds) * BigInt{2} + BigInt{1};
      const BigInt divisors[] = {random_limbs(rng, ds), two40 * odd,
                                 odd.shifted_left(rng() % 97), BigInt{1},
                                 BigInt{1}.shifted_left(rng() % 200)};
      const BigInt q0 = random_limbs(rng, qs);
      for (const BigInt& d0 : divisors)
        for (int signs = 0; signs < 4; ++signs) {
          const BigInt q = signs & 1 ? q0.negated() : q0;
          const BigInt d = signs & 2 ? d0.negated() : d0;
          const BigInt num = q * d;
          const BigInt got = BigInt::divexact(num, d);
          ASSERT_EQ(got, q) << "q limbs " << qs << ", d limbs " << ds;
          ASSERT_EQ(got, num / d);
        }
    }
  EXPECT_EQ(BigInt::divexact(BigInt{}, BigInt{-7}), BigInt{});
  EXPECT_FALSE(BigInt::divexact(BigInt{}, BigInt{-7}).is_negative());
  EXPECT_EQ(BigInt::divexact(BigInt{-42}, BigInt{6}), BigInt{-7});
}

TEST(BigIntDivExact, CrossDivExactMatchesBareissSteps) {
  // Fraction-free elimination of random integer matrices: every update
  // (a*b - c*d)/e is exact by Sylvester's identity.
  std::mt19937_64 rng{31};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 3 + rng() % 8;
    std::vector<std::vector<BigInt>> m(n, std::vector<BigInt>(n));
    for (auto& row : m)
      for (BigInt& v : row) {
        v = random_limbs(rng, 1 + rng() % 6);
        if (rng() % 2) v = v.negated();
        if (rng() % 7 == 0) v = BigInt{};
      }
    BigInt prev{1};
    for (std::size_t col = 0; col < n; ++col) {
      if (m[col][col].is_zero()) break;
      for (std::size_t r = col + 1; r < n; ++r)
        for (std::size_t j = col + 1; j < n; ++j) {
          const BigInt& a = m[col][col];
          const BigInt want = (a * m[r][j] - m[r][col] * m[col][j]) / prev;
          const BigInt got =
              BigInt::cross_divexact(a, m[r][j], m[r][col], m[col][j], prev);
          ASSERT_EQ(got, want);
          m[r][j] = got;
        }
      prev = m[col][col];
    }
  }
  // Long operands, with a, c multiples of e: products past the Karatsuba
  // threshold, and lopsided ones below it.
  for (int trial = 0; trial < 16; ++trial) {
    BigInt e = random_limbs(rng, 1 + rng() % 40);
    if (rng() % 2) e = e.negated();
    BigInt x = random_limbs(rng, 130 + rng() % 40);
    BigInt b = random_limbs(rng, trial % 2 ? 1 + rng() % 5 : 130 + rng() % 40);
    BigInt d = random_limbs(rng, 150 + rng() % 40);
    if (rng() % 2) b = b.negated();
    if (rng() % 2) d = d.negated();
    const BigInt got = BigInt::cross_divexact(e * x, b, e, d, e);
    EXPECT_EQ(got, x * b - d);
    EXPECT_EQ(got, (e * x * b - e * d) / e);
  }
  // Cancellation to zero, a zero product, and each sign of the result.
  EXPECT_EQ(BigInt::cross_divexact(BigInt{6}, BigInt{5}, BigInt{10}, BigInt{3},
                                   BigInt{7}),
            BigInt{});
  EXPECT_EQ(BigInt::cross_divexact(BigInt{}, BigInt{5}, BigInt{-4}, BigInt{3},
                                   BigInt{-6}),
            BigInt{-2});
  EXPECT_EQ(BigInt::cross_divexact(BigInt{2}, BigInt{3}, BigInt{4}, BigInt{3},
                                   BigInt{3}),
            BigInt{-2});
}

TEST(BigIntDivExact, InexactInputsThrowLogicError) {
  std::mt19937_64 rng{5};
  const BigInt d = random_limbs(rng, 6) * BigInt{2} + BigInt{1};
  const BigInt q = random_limbs(rng, 9);
  // |num| < |den|, single- and multi-limb.
  EXPECT_THROW((void)BigInt::divexact(BigInt{5}, BigInt{7}), std::logic_error);
  EXPECT_THROW((void)BigInt::divexact(d - BigInt{2}, d), std::logic_error);
  EXPECT_THROW((void)BigInt::divexact(q, q * q), std::logic_error);
  // A remainder only in the top limb: the low limbs agree with q*d.
  const BigInt num = q * d;
  const BigInt top = BigInt{1}.shifted_left(32 * (num.limb_count() - 1));
  EXPECT_THROW((void)BigInt::divexact(num + top, d), std::logic_error);
  EXPECT_THROW((void)BigInt::divexact((num + top).negated(), d),
               std::logic_error);
  // A remainder only in the stripped low bits of an even divisor.
  const BigInt even = d.shifted_left(45);
  EXPECT_THROW((void)BigInt::divexact(q * even + BigInt{1}.shifted_left(44), even),
               std::logic_error);
  EXPECT_THROW((void)BigInt::divexact(q * even + BigInt{1}, even),
               std::logic_error);
  // Two-limb operands and the fused step.
  const BigInt two64m2{"18446744073709551614"};  // 2^64 - 2
  EXPECT_THROW((void)BigInt::divexact(two64m2, BigInt{3}), std::logic_error);
  EXPECT_THROW((void)BigInt::divexact(two64m2, BigInt{"4294967297"}),
               std::logic_error);
  EXPECT_THROW((void)BigInt::cross_divexact(BigInt{6}, BigInt{5}, BigInt{1},
                                            BigInt{1}, BigInt{7}),
               std::logic_error);
  EXPECT_THROW((void)BigInt::cross_divexact(q, d, BigInt{1}, BigInt{1}, d),
               std::logic_error);
}

TEST(BigIntDivExact, DivisionByZeroThrowsDomainError) {
  EXPECT_THROW((void)BigInt::divexact(BigInt{5}, BigInt{}), std::domain_error);
  EXPECT_THROW((void)BigInt::divexact(BigInt{}, BigInt{}), std::domain_error);
  EXPECT_THROW((void)BigInt::divexact(BigInt{"123456789012345678901234567890"},
                                      BigInt{}),
               std::domain_error);
  EXPECT_THROW((void)BigInt::cross_divexact(BigInt{1}, BigInt{2}, BigInt{3},
                                            BigInt{4}, BigInt{}),
               std::domain_error);
}

class BigIntRandomProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BigIntRandomProperty, RingLawsAgainstInt64) {
  std::mt19937_64 rng{GetParam()};
  std::uniform_int_distribution<std::int64_t> dist{-1000000000, 1000000000};
  for (int iter = 0; iter < 200; ++iter) {
    const std::int64_t x = dist(rng), y = dist(rng), z = dist(rng);
    BigInt bx{x}, by{y}, bz{z};
    EXPECT_EQ((bx + by).to_int64(), x + y);
    EXPECT_EQ((bx - by).to_int64(), x - y);
    EXPECT_EQ((bx * by).to_int64(), x * y);
    // Associativity / distributivity.
    EXPECT_EQ(((bx + by) + bz), (bx + (by + bz)));
    EXPECT_EQ((bx * (by + bz)), (bx * by + bx * bz));
    if (y != 0) {
      EXPECT_EQ((bx / by).to_int64(), x / y);
      EXPECT_EQ((bx % by).to_int64(), x % y);
    }
  }
}

TEST_P(BigIntRandomProperty, DivModInvariantOnHugeOperands) {
  std::mt19937_64 rng{GetParam() + 17};
  auto random_big = [&rng](int limbs) {
    BigInt acc;
    std::uniform_int_distribution<std::int64_t> d{0,
        std::numeric_limits<std::int64_t>::max()};
    for (int i = 0; i < limbs; ++i) {
      acc = acc.shifted_left(62);
      acc += BigInt{d(rng)};
    }
    return rng() % 2 ? acc : acc.negated();
  };
  for (int iter = 0; iter < 50; ++iter) {
    BigInt a = random_big(1 + static_cast<int>(rng() % 8));
    BigInt b = random_big(1 + static_cast<int>(rng() % 5));
    if (b.is_zero()) continue;
    auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    // Remainder sign follows dividend (truncated division).
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

TEST_P(BigIntRandomProperty, StringRoundTrip) {
  std::mt19937_64 rng{GetParam() + 99};
  std::uniform_int_distribution<std::int64_t> d{
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a{d(rng)};
    BigInt b = a * a * a;  // force multi-limb
    EXPECT_EQ(BigInt{b.to_string()}, b);
  }
}

TEST_P(BigIntRandomProperty, KaratsubaMatchesSchoolbookViaIdentity) {
  // (a+b)^2 == a^2 + 2ab + b^2 on operands big enough to cross the
  // Karatsuba threshold.
  std::mt19937_64 rng{GetParam() + 7};
  auto random_wide = [&rng]() {
    BigInt acc{1};
    for (int i = 0; i < 40; ++i) {
      acc = acc.shifted_left(31);
      acc += BigInt{static_cast<std::int64_t>(rng() & 0x7fffffff)};
    }
    return acc;
  };
  for (int iter = 0; iter < 10; ++iter) {
    BigInt a = random_wide(), b = random_wide();
    BigInt lhs = (a + b) * (a + b);
    BigInt rhs = a * a + a * b + a * b + b * b;
    EXPECT_EQ(lhs, rhs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace spiv::exact
