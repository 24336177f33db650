// Property tests for the exact validation engines: constructed-PD and
// constructed-indefinite sweeps where ground truth is known by design, and
// verdict-equality sweeps of the integer Sylvester engine against the
// rational Ldlt and SympyGauss engines.
#include <gtest/gtest.h>

#include <random>

#include "lyapunov/synthesis.hpp"
#include "model/reduction.hpp"
#include "model/switched_pi.hpp"
#include "smt/validate.hpp"

namespace spiv::smt {
namespace {

using exact::RatMatrix;
using exact::Rational;

struct Case {
  Engine engine;
  bool det;
  unsigned seed;
};

class EngineProperty
    : public ::testing::TestWithParam<std::tuple<Engine, bool, unsigned>> {};

RatMatrix random_rational(std::mt19937_64& rng, std::size_t n,
                          std::int64_t span = 6) {
  std::uniform_int_distribution<std::int64_t> num{-span, span};
  std::uniform_int_distribution<std::int64_t> den{1, 4};
  RatMatrix m{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = Rational{num(rng), den(rng)};
  return m;
}

TEST_P(EngineProperty, GramMatricesOfFullRankFactorsArePd) {
  auto [engine, det, seed] = GetParam();
  CheckOptions options;
  options.det_encoding = det;
  std::mt19937_64 rng{seed};
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t n = 2 + iter % 5;
    // L unit lower triangular with random entries => L L^T is PD.
    RatMatrix l = RatMatrix::identity(n);
    std::uniform_int_distribution<std::int64_t> num{-3, 3};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) l(i, j) = Rational{num(rng), 2};
    RatMatrix m = l * l.transposed();
    EXPECT_EQ(check_positive_definite(m, engine, options).outcome,
              Outcome::Valid)
        << to_string(engine) << " det=" << det << " iter " << iter;
  }
}

TEST_P(EngineProperty, MatricesWithNegativeDiagonalEntryAreRejected) {
  auto [engine, det, seed] = GetParam();
  CheckOptions options;
  options.det_encoding = det;
  std::mt19937_64 rng{seed + 1};
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t n = 2 + iter % 5;
    RatMatrix m = (random_rational(rng, n) *
                   random_rational(rng, n).transposed())
                      .symmetrized();
    // Force indefiniteness: one strongly negative diagonal entry.
    m(n - 1, n - 1) = Rational{-1000};
    EXPECT_EQ(check_positive_definite(m, engine, options).outcome,
              Outcome::Invalid)
        << to_string(engine) << " det=" << det << " iter " << iter;
  }
}

TEST_P(EngineProperty, RankDeficientGramMatricesAreNotStrictlyPd) {
  auto [engine, det, seed] = GetParam();
  CheckOptions options;
  options.det_encoding = det;
  std::mt19937_64 rng{seed + 2};
  for (int iter = 0; iter < 6; ++iter) {
    const std::size_t n = 3 + iter % 3;
    // Rank n-1 Gram matrix: B (n x n-1) random, M = B B^T is PSD singular.
    std::uniform_int_distribution<std::int64_t> num{-4, 4};
    RatMatrix b{n, n - 1};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j + 1 < n; ++j) b(i, j) = Rational{num(rng)};
    RatMatrix m = (b * b.transposed()).symmetrized();
    EXPECT_EQ(check_positive_definite(m, engine, options).outcome,
              Outcome::Invalid)
        << to_string(engine) << " det=" << det << " iter " << iter;
  }
}

TEST_P(EngineProperty, ScalingInvariance) {
  // PD-ness is invariant under positive scaling of the matrix.
  auto [engine, det, seed] = GetParam();
  CheckOptions options;
  options.det_encoding = det;
  std::mt19937_64 rng{seed + 3};
  RatMatrix l = RatMatrix::identity(4);
  std::uniform_int_distribution<std::int64_t> num{-3, 3};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < i; ++j) l(i, j) = Rational{num(rng), 3};
  RatMatrix m = l * l.transposed();
  for (auto scale : {Rational{1, 1000000}, Rational{1}, Rational{1000000}}) {
    RatMatrix scaled = m;
    scaled *= scale;
    EXPECT_EQ(check_positive_definite(scaled, engine, options).outcome,
              Outcome::Valid)
        << to_string(engine) << " scale " << scale.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineProperty,
    ::testing::Combine(::testing::Values(Engine::Sylvester, Engine::SympyGauss,
                                         Engine::Ldlt, Engine::SmtZ3Style,
                                         Engine::SmtCvc5Style),
                       ::testing::Bool(), ::testing::Values(11u, 22u)),
    [](const auto& info) {
      std::string s = to_string(std::get<0>(info.param)) +
                      (std::get<1>(info.param) ? "_det" : "") + "_s" +
                      std::to_string(std::get<2>(info.param));
      for (auto& ch : s)
        if (ch == '-' || ch == '+') ch = '_';
      return s;
    });

// ------------------------------------------- Sylvester verdict equality

/// Random symmetric matrix whose entries have 2^k or 10^k denominators
/// (binary-exact plants and decimal-rounded candidates, mixed), with the
/// diagonal shifted by `shift` so that both verdicts occur.
RatMatrix mixed_denominator_symmetric(std::mt19937_64& rng, std::size_t n,
                                      const Rational& shift) {
  std::uniform_int_distribution<std::int64_t> num{-1000000, 1000000};
  std::uniform_int_distribution<unsigned> power{0, 12};
  std::bernoulli_distribution decimal{0.5};
  auto entry = [&] {
    const unsigned k = power(rng);
    const exact::BigInt den = decimal(rng) ? exact::BigInt::pow10(k)
                                           : exact::BigInt{1}.shifted_left(k);
    return Rational{exact::BigInt{num(rng)}, den};
  };
  RatMatrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = entry() + shift;
    for (std::size_t j = 0; j < i; ++j) m(i, j) = m(j, i) = entry();
  }
  return m;
}

/// Checks that Sylvester agrees with Ldlt and SympyGauss on `m` (with and
/// without "+det") and returns the common verdict.
Outcome expect_sylvester_agrees(const RatMatrix& m, const std::string& what) {
  Outcome common = Outcome::Timeout;
  for (bool det : {false, true}) {
    CheckOptions options;
    options.det_encoding = det;
    const Outcome sylvester =
        check_positive_definite(m, Engine::Sylvester, options).outcome;
    EXPECT_NE(sylvester, Outcome::Timeout) << what;
    for (Engine other : {Engine::Ldlt, Engine::SympyGauss})
      EXPECT_EQ(sylvester, check_positive_definite(m, other, options).outcome)
          << what << " vs " << to_string(other) << " det=" << det;
    common = sylvester;
  }
  return common;
}

TEST(SylvesterEquality, RandomMixedDenominatorMatricesAgreeWithLdltAndGauss) {
  std::mt19937_64 rng{2024};
  std::uniform_int_distribution<std::int64_t> shift_scale{-1, 4};
  int valid = 0;
  int invalid = 0;
  for (int iter = 0; iter < 160; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(iter) % 8;
    // Diagonal shift around the off-diagonal mass (~n * 1e6 at worst).
    const Rational shift{shift_scale(rng) * 250000 *
                         static_cast<std::int64_t>(n)};
    const RatMatrix m = mixed_denominator_symmetric(rng, n, shift);
    const Outcome o =
        expect_sylvester_agrees(m, "iter " + std::to_string(iter));
    (o == Outcome::Valid ? valid : invalid) += 1;
  }
  EXPECT_GT(valid, 20);
  EXPECT_GT(invalid, 20);
}

TEST(SylvesterEquality, EdgeCasesAgreeWithLdltAndGauss) {
  auto q = [](std::int64_t n, std::int64_t d = 1) { return Rational{n, d}; };
  // Singular PSD: v v^T + u u^T with v = (1, 1/5, 3/8), u = (0, 1, 1/2);
  // leading minors 1, 1, 0.
  const RatMatrix singular{{q(1), q(1, 5), q(3, 8)},
                           {q(1, 5), q(26, 25), q(23, 40)},
                           {q(3, 8), q(23, 40), q(25, 64)}};
  EXPECT_EQ(singular.leading_principal_minors(),
            (std::vector<Rational>{q(1), q(1), q(0)}));
  EXPECT_EQ(expect_sylvester_agrees(singular, "singular PSD"),
            Outcome::Invalid);
  // Zero (0,0) entry with later positive entries: minor 1 is 0.
  EXPECT_EQ(expect_sylvester_agrees(RatMatrix{{q(0), q(1)}, {q(1), q(1)}},
                                    "zero first pivot"),
            Outcome::Invalid);
  // Negative first pivot.
  EXPECT_EQ(expect_sylvester_agrees(
                RatMatrix{{q(-1, 1024), q(0)}, {q(0), q(5)}}, "negative"),
            Outcome::Invalid);
  // Only the last leading minor negative: minors 2, 3 and
  // det = 2 (2c - 9/4) - c < 0 for c = 1/10.
  const RatMatrix last{{q(2), q(1), q(0)},
                       {q(1), q(2), q(3, 2)},
                       {q(0), q(3, 2), q(1, 10)}};
  EXPECT_EQ(expect_sylvester_agrees(last, "last minor negative"),
            Outcome::Invalid);
  EXPECT_EQ(last.leading_principal_minors(),
            (std::vector<Rational>{q(2), q(3), q(-21, 5)}));
  // A zero below the first pivot: Bareiss must still rescale that row, or
  // the next division truncates and the last minor (8) reads as 0.
  const RatMatrix zero_below{{q(10), q(1), q(0)},
                             {q(1), q(1), q(1)},
                             {q(0), q(1), q(2)}};
  EXPECT_EQ(zero_below.leading_principal_minors(),
            (std::vector<Rational>{q(10), q(9), q(8)}));
  EXPECT_EQ(expect_sylvester_agrees(zero_below, "zero below first pivot"),
            Outcome::Valid);
  // 1x1 and 0x0.
  EXPECT_EQ(expect_sylvester_agrees(RatMatrix{{q(3, 1000)}}, "1x1 positive"),
            Outcome::Valid);
  EXPECT_EQ(expect_sylvester_agrees(RatMatrix{{q(-3, 1000)}}, "1x1 negative"),
            Outcome::Invalid);
  EXPECT_EQ(expect_sylvester_agrees(RatMatrix{0, 0}, "0x0"), Outcome::Valid);
}

TEST(SylvesterEquality, FamilyCandidatesGetTheLdltVerdicts) {
  // The paper's validation protocol on the float plants of sizes 3/5/10,
  // both closed-loop modes, three synthesis routes and four rounding
  // depths: the integer Sylvester engine must reproduce the rational Ldlt
  // verdict on both Lyapunov conditions.  Coarse rounding produces Invalid
  // verdicts, so both outcomes are exercised.
  int invalid = 0;
  int compared = 0;
  for (const auto& bm : model::benchmark_family()) {
    if (bm.integer_rounded || bm.size > 10) continue;
    for (std::size_t mode = 0; mode < bm.controller.gains.size(); ++mode) {
      const numeric::Matrix a =
          model::close_loop_single_mode(bm.plant, bm.controller.gains[mode])
              .a;
      for (lyap::Method method :
           {lyap::Method::EqNum, lyap::Method::Modal, lyap::Method::Lmi}) {
        const auto candidate = lyap::synthesize(a, method);
        if (!candidate) continue;
        for (int digits : {2, 3, 4, 10}) {
          const auto sylvester = validate_lyapunov(a, candidate->p,
                                                   Engine::Sylvester, digits);
          const auto ldlt =
              validate_lyapunov(a, candidate->p, Engine::Ldlt, digits);
          const std::string what = bm.name + " mode " + std::to_string(mode) +
                                   " " + lyap::to_string(method) +
                                   " digits " + std::to_string(digits);
          EXPECT_EQ(sylvester.positivity.outcome, ldlt.positivity.outcome)
              << what;
          EXPECT_EQ(sylvester.decrease.outcome, ldlt.decrease.outcome) << what;
          invalid += (sylvester.positivity.outcome == Outcome::Invalid) +
                     (sylvester.decrease.outcome == Outcome::Invalid);
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 60);
  EXPECT_GT(invalid, 0);
}

}  // namespace
}  // namespace spiv::smt
