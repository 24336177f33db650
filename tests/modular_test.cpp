// Multi-modular exact solver: Montgomery kernel units, rational
// reconstruction, and (the property the whole module hangs on)
// bit-identical agreement with fraction-free Bareiss.
#include <gtest/gtest.h>

#include <random>

#include "exact/lyapunov_exact.hpp"
#include "exact/matrix.hpp"
#include "exact/modular.hpp"
#include "obs/metrics.hpp"

namespace spiv::exact {
namespace {

RatMatrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t m) {
  std::uniform_int_distribution<std::int64_t> num{-9, 9};
  std::uniform_int_distribution<std::int64_t> den{1, 6};
  RatMatrix out{n, m};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = Rational{num(rng), den(rng)};
  return out;
}

/// Diagonally dominant => nonsingular (and Hurwitz after the shift).
RatMatrix random_stable(std::mt19937_64& rng, std::size_t n) {
  RatMatrix a = random_matrix(rng, n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= Rational{40};
  return a;
}

// ---------------------------------------------------------------- kernel

TEST(Montgomery62, RoundTripAndArithmeticMatchReference) {
  const std::uint64_t p = modular_prime(0);
  const Montgomery62 mont{p};
  std::mt19937_64 rng{42};
  std::uniform_int_distribution<std::uint64_t> dist{0, p - 1};
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t a = dist(rng);
    const std::uint64_t b = dist(rng);
    EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a);
    const std::uint64_t prod = mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
    const auto ref = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(a) * b % p);
    EXPECT_EQ(prod, ref);
    EXPECT_EQ(mont.from_mont(mont.add(mont.to_mont(a), mont.to_mont(b))),
              (a + b) % p);
    const std::uint64_t diff = a >= b ? a - b : a + p - b;
    EXPECT_EQ(mont.from_mont(mont.sub(mont.to_mont(a), mont.to_mont(b))), diff);
    if (a != 0) {
      const std::uint64_t inv = mont.inv(mont.to_mont(a));
      EXPECT_EQ(mont.from_mont(mont.mul(inv, mont.to_mont(a))), 1u);
    }
  }
}

TEST(Montgomery62, RejectsBadModulus) {
  EXPECT_THROW(Montgomery62{0}, std::invalid_argument);
  EXPECT_THROW(Montgomery62{10}, std::invalid_argument);  // even
  EXPECT_THROW(Montgomery62{std::uint64_t{1} << 62}, std::invalid_argument);
}

TEST(ModularPrime, DeterministicDescendingOddSequence) {
  const std::uint64_t p0 = modular_prime(0);
  EXPECT_EQ(p0, modular_prime(0));  // cached, stable
  EXPECT_LT(p0, std::uint64_t{1} << 62);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t p = modular_prime(i);
    EXPECT_EQ(p & 1u, 1u);
    if (i > 0) {
      EXPECT_LT(p, modular_prime(i - 1));
    }
    // Spot-check primality against small factors.
    for (std::uint64_t d : {3ull, 5ull, 7ull, 11ull, 13ull, 101ull})
      EXPECT_NE(p % d, 0u) << "prime " << i;
  }
}

// -------------------------------------------------------- reconstruction

TEST(RationalReconstruct, RecoversSmallFractions) {
  const BigInt m{1000003};  // prime
  const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
  // u = num * den^-1 mod m, computed by brute-force search of the inverse.
  auto encode = [&](std::int64_t num, std::int64_t den) {
    std::int64_t inv = 0;
    for (std::int64_t t = 1; t < 1000003; ++t)
      if (t * den % 1000003 == 1) {
        inv = t;
        break;
      }
    std::int64_t u = (num % 1000003 + 1000003) % 1000003;
    u = u * inv % 1000003;
    return BigInt{u};
  };
  for (auto [num, den] : {std::pair<std::int64_t, std::int64_t>{22, 7},
                          {-3, 5},
                          {0, 1},
                          {137, 1},
                          {-1, 99}}) {
    auto r = rational_reconstruct(encode(num, den), m, bound);
    ASSERT_TRUE(r.has_value()) << num << "/" << den;
    EXPECT_EQ(*r, Rational(num, den));
  }
}

TEST(RationalReconstruct, RejectsValuesOutsideTheBound) {
  // With bound floor(sqrt((m-1)/2)) ~ 707, a residue encoding 1234/1235
  // (both above the bound) has no admissible representative.
  const BigInt m{1000003};
  const BigInt bound{20};
  auto r = rational_reconstruct(BigInt{987654}, m, bound);
  EXPECT_FALSE(r.has_value());
}

// ---------------------------------------------------------------- solves

TEST(SolveRationalModular, MatchesBareissOnRandomSystems) {
  std::mt19937_64 rng{7001};
  for (std::size_t n = 2; n <= 8; ++n) {
    RatMatrix a = random_stable(rng, n);
    RatMatrix b = random_matrix(rng, n, 2);
    ModularStats stats;
    ModularOptions options;
    options.stats = &stats;
    auto modular = solve_rational_modular(a, b, Deadline{}, options);
    auto bareiss = a.solve(b);
    ASSERT_TRUE(modular.has_value()) << "n=" << n;
    ASSERT_TRUE(bareiss.has_value()) << "n=" << n;
    EXPECT_EQ(*modular, *bareiss) << "n=" << n;
    EXPECT_GE(stats.primes_used, 1u);
  }
}

TEST(SolveRationalModular, SingularSystemReturnsNullopt) {
  RatMatrix a{{Rational{1}, Rational{2}}, {Rational{2}, Rational{4}}};
  RatMatrix b{{Rational{1}}, {Rational{1}}};
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  EXPECT_FALSE(solve_rational_modular(a, b, Deadline{}, options).has_value());
  EXPECT_FALSE(a.solve(b).has_value());  // Bareiss agrees: singular
}

TEST(SolveRationalModular, SkipsSeededUnluckyPrime) {
  // det(A) == modular_prime(0), so the first prime of the sequence sees a
  // singular system and must be skipped without affecting the result.
  const auto p0 = static_cast<std::int64_t>(modular_prime(0));
  RatMatrix a{{Rational{p0}, Rational{0}, Rational{3}},
              {Rational{0}, Rational{1}, Rational{1}},
              {Rational{0}, Rational{0}, Rational{1}}};
  RatMatrix b{{Rational{1}}, {Rational{2}}, {Rational{3}}};
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto modular = solve_rational_modular(a, b, Deadline{}, options);
  auto bareiss = a.solve(b);
  ASSERT_TRUE(modular.has_value());
  ASSERT_TRUE(bareiss.has_value());
  EXPECT_EQ(*modular, *bareiss);
  EXPECT_GE(stats.unlucky_primes, 1u);
}

TEST(SolveRationalModular, ResultIndependentOfJobs) {
  std::mt19937_64 rng{7003};
  RatMatrix a = random_stable(rng, 6);
  RatMatrix b = random_matrix(rng, 6, 1);
  ModularOptions serial;
  serial.jobs = 1;
  ModularOptions parallel;
  parallel.jobs = 4;
  auto x1 = solve_rational_modular(a, b, Deadline{}, serial);
  auto x4 = solve_rational_modular(a, b, Deadline{}, parallel);
  ASSERT_TRUE(x1.has_value());
  ASSERT_TRUE(x4.has_value());
  EXPECT_EQ(*x1, *x4);
}

TEST(SolveRationalModular, PaperSizeVechSystemsMatchBareissAcrossJobs) {
  // The Table I "TO" sizes: vech Lyapunov systems of matrix dimension 15
  // and 18 (120 and 171 unknowns).  Small-coefficient random A keeps the
  // Bareiss reference affordable; the property under test is the same as
  // for the engine family — the modular result is bit-identical to
  // Bareiss and independent of the worker count.
  for (std::size_t n : {std::size_t{15}, std::size_t{18}}) {
    std::mt19937_64 rng{7100 + n};
    RatMatrix a = random_stable(rng, n);
    RatMatrix op = lyapunov_operator_vech(a);
    const std::vector<Rational> v = vech(RatMatrix::identity(n) * Rational{-1});
    RatMatrix rhs{op.rows(), 1};
    for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
    auto bareiss = op.solve(rhs);
    ASSERT_TRUE(bareiss.has_value()) << "n=" << n;
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      ModularStats stats;
      ModularOptions options;
      options.jobs = jobs;
      options.stats = &stats;
      auto modular = solve_rational_modular(op, rhs, Deadline{}, options);
      ASSERT_TRUE(modular.has_value()) << "n=" << n << " jobs=" << jobs;
      EXPECT_EQ(*modular, *bareiss) << "n=" << n << " jobs=" << jobs;
      EXPECT_GT(stats.primes_used, 0u);
      // The per-phase split is recorded and accounts for real time.
      EXPECT_GT(stats.elim_seconds, 0.0);
      EXPECT_GT(stats.reconstruct_seconds, 0.0);
      EXPECT_GE(stats.crt_seconds, 0.0);
      EXPECT_GE(stats.verify_seconds, 0.0);
    }
  }
}

TEST(SolveRationalModular, PerEntryReconstructionHandlesMixedDenominators) {
  // Output-sensitive reconstruction: a diagonal system whose solution
  // mixes tiny denominators (reconstructable after a handful of primes,
  // then served from the per-entry cache) with ~200-bit ones (needing
  // most of the Hadamard budget), plus repeats that exercise the
  // shared-denominator fast path.
  const BigInt huge1 = BigInt{"340282366920938463463374607431768211507"};
  const BigInt huge2 = BigInt{"18446744073709551629"}.pow(3);
  const std::vector<Rational> expect = {
      Rational{1, 2},
      Rational{-3, 7},
      Rational{5},
      Rational{BigInt{7}, huge1},
      Rational{BigInt{-11}, huge2},
      Rational{BigInt{13}, huge1},   // repeated huge denominator
      Rational{0},
      Rational{1, 2},                // repeated tiny denominator
  };
  const std::size_t n = expect.size();
  RatMatrix a{n, n};
  RatMatrix b{n, 1};
  for (std::size_t i = 0; i < n; ++i) {
    // a(i,i) * x_i = 1  =>  pick a(i,i) = 1 / x_i (x_i = 0 row uses b = 0).
    if (expect[i].is_zero()) {
      a(i, i) = Rational{1};
      b(i, 0) = Rational{0};
    } else {
      a(i, i) = Rational{expect[i].den(), expect[i].num()};
      b(i, 0) = Rational{1};
    }
  }
  auto x = solve_rational_modular(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ((*x)(i, 0), expect[i]) << i;
}

TEST(SolveRationalModular, SkipsSeededUnluckyPrimeAtSize15) {
  // A 15-dimensional system whose determinant is divisible by the first
  // prime of the modular sequence: block-triangular with a(0,0) ==
  // modular_prime(0), so p0 must be rejected as unlucky at full size and
  // the result still match Bareiss bit-for-bit.
  std::mt19937_64 rng{7111};
  RatMatrix a = random_stable(rng, 15);
  for (std::size_t j = 1; j < 15; ++j) a(0, j) = Rational{0};
  for (std::size_t i = 1; i < 15; ++i) a(i, 0) = Rational{0};
  a(0, 0) = Rational{static_cast<std::int64_t>(modular_prime(0))};
  // Integer entries only: row scaling must not cancel the seeded factor.
  for (std::size_t i = 1; i < 15; ++i)
    for (std::size_t j = 1; j < 15; ++j)
      a(i, j) = Rational{a(i, j).num() * BigInt{60} / a(i, j).den(), BigInt{1}};
  RatMatrix b = random_matrix(rng, 15, 1);
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto modular = solve_rational_modular(a, b, Deadline{}, options);
  auto bareiss = a.solve(b);
  ASSERT_TRUE(modular.has_value());
  ASSERT_TRUE(bareiss.has_value());
  EXPECT_EQ(*modular, *bareiss);
  EXPECT_GE(stats.unlucky_primes, 1u);
}

TEST(SolveRationalModular, EarlyExitsWhenSolutionIsSmallerThanTheBound) {
  // Scaling the whole system by 10^40 inflates the Hadamard budget far
  // beyond what the (unchanged, small) solution needs; checkpointed trial
  // reconstruction should bail out long before the full prime budget.
  std::mt19937_64 rng{7005};
  RatMatrix a = random_stable(rng, 4);
  RatMatrix b = random_matrix(rng, 4, 1);
  const Rational scale{BigInt::pow10(40), BigInt{1}};
  RatMatrix a2 = a * scale;
  RatMatrix b2 = b * scale;
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto x = solve_rational_modular(a2, b2, Deadline{}, options);
  auto reference = a.solve(b);
  ASSERT_TRUE(x.has_value());
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(*x, *reference);
  EXPECT_TRUE(stats.early_exit);
}

TEST(SolveRationalModular, HonoursExpiredDeadline) {
  std::mt19937_64 rng{7007};
  RatMatrix a = random_stable(rng, 5);
  RatMatrix b = random_matrix(rng, 5, 1);
  const Deadline expired = Deadline::after_seconds(-1.0);
  EXPECT_THROW((void)solve_rational_modular(a, b, expired), TimeoutError);
}

// -------------------------------------------------------------- strategy

TEST(Strategy, LyapunovSolveIsIdenticalAcrossBackends) {
  // The modular path hands out its solution only after the integer
  // Lyapunov residual recheck accepts it; a recheck that rejected correct
  // solutions would still return Bareiss's (equal) answer, so it is caught
  // by the fallback counter, not by the comparison.
  const obs::Counter& fallbacks =
      obs::Registry::global().counter("spiv_modular_fallback_total");
  std::mt19937_64 rng{7013};
  for (std::size_t n = 1; n <= 5; ++n) {
    RatMatrix a = random_stable(rng, n);
    RatMatrix q = RatMatrix::identity(n);
    const auto via_bareiss =
        solve_lyapunov_exact(a, q, Deadline{}, ExactSolverStrategy::Bareiss);
    const std::uint64_t fallbacks_before = fallbacks.value();
    const auto via_modular =
        solve_lyapunov_exact(a, q, Deadline{}, ExactSolverStrategy::Modular);
    EXPECT_EQ(fallbacks.value(), fallbacks_before) << "n=" << n;
    ASSERT_TRUE(via_bareiss.has_value());
    ASSERT_TRUE(via_modular.has_value());
    EXPECT_EQ(*via_bareiss, *via_modular) << "n=" << n;
    // And the result actually solves the Lyapunov equation.
    RatMatrix r = lyapunov_residual(a, *via_modular, q);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) EXPECT_TRUE(r(i, j).is_zero());
  }
}

}  // namespace
}  // namespace spiv::exact
