// Tests for the LMI/SDP layer: pencils, the three backends, and the
// Lyapunov LMI constructors.
#include "sdp/lmi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <random>
#include <string>

#include "lyapunov/piecewise.hpp"
#include "model/engine.hpp"
#include "model/reduction.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lyapunov.hpp"
#include "sdp/lyapunov_lmi.hpp"

namespace spiv::sdp {
namespace {

using numeric::Matrix;
using numeric::Vector;

TEST(MatrixPencil, EvaluatesAffinely) {
  Matrix f0{{1, 0}, {0, 1}};
  Matrix f1{{0, 1}, {1, 0}};
  MatrixPencil pencil{f0, {f1}};
  Matrix at2 = pencil.evaluate(Vector{2.0});
  EXPECT_DOUBLE_EQ(at2(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(at2(0, 0), 1.0);
  EXPECT_THROW(pencil.evaluate(Vector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(MatrixPencil(f0, {Matrix{3, 3}}), std::invalid_argument);
}

TEST(LmiProblem, MinEigenvalueAcrossBlocks) {
  // Block 1: diag(1+p, 1-p); block 2: [2].
  Matrix f0 = Matrix::identity(2);
  Matrix f1{{1, 0}, {0, -1}};
  LmiProblem problem;
  problem.num_vars = 1;
  problem.constraints.emplace_back(f0, std::vector<Matrix>{f1});
  problem.constraints.emplace_back(Matrix{{2}}, std::vector<Matrix>{Matrix{1, 1}});
  EXPECT_NEAR(problem.min_eigenvalue(Vector{0.5}), 0.5, 1e-12);
  EXPECT_NEAR(problem.min_eigenvalue(Vector{0.0}), 1.0, 1e-12);
}

class BackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(BackendTest, SolvesSimpleIntervalFeasibility) {
  // 1 + p > 0 and 1 - p > 0 and p - 0.2 > 0: feasible p in (0.2, 1).
  LmiProblem problem;
  problem.num_vars = 1;
  problem.constraints.emplace_back(Matrix{{1}}, std::vector<Matrix>{Matrix{{1}}});
  problem.constraints.emplace_back(Matrix{{1}}, std::vector<Matrix>{Matrix{{-1}}});
  problem.constraints.emplace_back(Matrix{{-0.2}},
                                   std::vector<Matrix>{Matrix{{1}}});
  auto sol = solve_lmi(problem, GetParam());
  ASSERT_TRUE(sol.feasible) << to_string(GetParam());
  EXPECT_GT(sol.p[0], 0.2);
  EXPECT_LT(sol.p[0], 1.0);
  EXPECT_GT(sol.achieved_margin, 0.0);
}

TEST_P(BackendTest, SolvesLyapunovLmiOnStableSystem) {
  Matrix a{{-1, 2}, {0, -3}};
  LyapunovLmiConfig config;
  auto problem = make_lyapunov_lmi(a, config);
  auto sol = solve_lmi(problem, GetParam());
  ASSERT_TRUE(sol.feasible) << to_string(GetParam());
  Matrix p = unvech_double(sol.p, 2);
  // P symmetric PD, A^T P + P A ND.
  EXPECT_TRUE(p.cholesky().has_value());
  Matrix lie = a.transposed() * p + p * a;
  auto eig = numeric::symmetric_eigen(lie);
  EXPECT_LT(eig.values.back(), 0.0) << to_string(GetParam());
}

TEST_P(BackendTest, ReportsInfeasibleForUnstableSystem) {
  // No Lyapunov function exists for an unstable A; solvers must not claim
  // a margin above target.
  Matrix a{{1, 0}, {0, -1}};
  LyapunovLmiConfig config;
  auto problem = make_lyapunov_lmi(a, config);
  LmiOptions options;
  options.max_iterations = 60;
  auto sol = solve_lmi(problem, GetParam(), options);
  if (sol.feasible) {
    // Any point the solver returns must violate the Lie constraint when
    // checked properly (margin cannot truly be positive).
    EXPECT_LT(problem.min_eigenvalue(sol.p), 1e-9);
  }
}

TEST_P(BackendTest, HonorsDeadline) {
  Matrix a = Matrix::diagonal(Vector{-1, -2, -3, -4, -5, -6});
  auto problem = make_lyapunov_lmi(a, LyapunovLmiConfig{});
  LmiOptions options;
  options.deadline = Deadline::after_seconds(-1.0);
  EXPECT_THROW(solve_lmi(problem, GetParam(), options), TimeoutError);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(Backend::NewtonAnalyticCenter,
                                           Backend::FastInteriorPoint,
                                           Backend::ShortStepBarrier),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

TEST(LyapunovLmi, AlphaVariantEnforcesDecayRate) {
  Matrix a{{-2, 1}, {0, -2}};
  LyapunovLmiConfig config;
  config.alpha = 1.0;  // well below 2*|abscissa| = 4
  auto problem = make_lyapunov_lmi(a, config);
  auto sol = solve_lmi(problem, Backend::NewtonAnalyticCenter);
  ASSERT_TRUE(sol.feasible);
  Matrix p = unvech_double(sol.p, 2);
  // A^T P + P A + alpha P < 0  =>  Vdot <= -alpha V.
  Matrix m = a.transposed() * p + p * a + config.alpha * p;
  EXPECT_LT(numeric::symmetric_eigen(m).values.back(), 0.0);
}

TEST(LyapunovLmi, AlphaPlusVariantBoundsEigenvaluesBelow) {
  Matrix a{{-2, 1}, {0, -2}};
  LyapunovLmiConfig config;
  config.alpha = 0.5;
  config.nu = 0.05;
  auto problem = make_lyapunov_lmi(a, config);
  auto sol = solve_lmi(problem, Backend::NewtonAnalyticCenter);
  ASSERT_TRUE(sol.feasible);
  Matrix p = unvech_double(sol.p, 2);
  auto eig = numeric::symmetric_eigen(p);
  EXPECT_GT(eig.values.front(), config.nu);
  EXPECT_LT(eig.values.back(), 1.0);  // kappa normalization
}

TEST(LyapunovLmi, RejectsBadConfig) {
  Matrix a{{-1}};
  LyapunovLmiConfig config;
  config.nu = 2.0;  // >= kappa
  EXPECT_THROW(make_lyapunov_lmi(a, config), std::invalid_argument);
  EXPECT_THROW(make_lyapunov_lmi(Matrix{2, 3}, LyapunovLmiConfig{}),
               std::invalid_argument);
}

TEST(VechBasis, RoundTripsThroughUnvech) {
  const std::size_t n = 4;
  const std::size_t big_k = n * (n + 1) / 2;
  std::mt19937_64 rng{3};
  std::normal_distribution<double> d;
  Vector p(big_k);
  for (auto& v : p) v = d(rng);
  Matrix m = unvech_double(p, n);
  EXPECT_TRUE(m.is_symmetric(0.0));
  // Sum of p_k * E_k equals unvech(p).
  Matrix acc{n, n};
  for (std::size_t k = 0; k < big_k; ++k)
    acc += p[k] * vech_basis_matrix(k, n);
  EXPECT_LT((acc - m).max_abs(), 1e-15);
}

TEST(Backends, LyapunovOnClosedLoopSizedProblem) {
  // A representative mid-size problem (d = 8) solved by the two barrier
  // backends; the projection backend is exercised at small sizes only
  // (it is deliberately slow, mirroring SMCP).
  std::mt19937_64 rng{9};
  std::normal_distribution<double> d;
  Matrix a{8, 8};
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) a(i, j) = d(rng);
  const double shift = numeric::spectral_abscissa(a) + 1.0;
  for (std::size_t i = 0; i < 8; ++i) a(i, i) -= shift;
  for (Backend b : {Backend::NewtonAnalyticCenter, Backend::FastInteriorPoint}) {
    auto sol = solve_lmi(make_lyapunov_lmi(a, LyapunovLmiConfig{}), b);
    ASSERT_TRUE(sol.feasible) << to_string(b);
    Matrix p = unvech_double(sol.p, 8);
    EXPECT_TRUE(p.cholesky().has_value());
    EXPECT_LT(
        numeric::symmetric_eigen(a.transposed() * p + p * a).values.back(),
        0.0);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity goldens.  Every fingerprint below was recorded from the
// dense Newton assembly (every coefficient a dense matrix, every trace over
// all n^2 terms).  The solver must reproduce p, achieved_margin and the
// iteration count to the bit: a change to the SDP layer that moves a single
// bit of any of them must say so and re-record these values.

struct Fingerprint {
  std::uint64_t digest = 0;       ///< FNV-1a over the bits of the result
  std::uint64_t margin_bits = 0;  ///< bits of achieved_margin
  int iterations = 0;
  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{0x" << std::hex << std::setw(16) << std::setfill('0')
            << f.digest << "ull, 0x" << std::setw(16) << f.margin_bits
            << "ull, " << std::dec << f.iterations << "}";
}

/// FNV-1a over the IEEE-754 bit patterns of `values`, in order.
std::uint64_t fnv_bits(const Vector& values,
                       std::uint64_t h = 0xcbf29ce484222325ull) {
  for (double x : values) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

Fingerprint fingerprint(const LmiSolution& sol) {
  return {fnv_bits(sol.p), std::bit_cast<std::uint64_t>(sol.achieved_margin),
          sol.iterations};
}

struct FamilyGolden {
  const char* name;
  Fingerprint fp;
};

// plant/mode/method/backend for sizes 3, 3i, 5, 5i, 10, with the LMI
// configurations of lyap::SynthesisOptions' defaults.
const FamilyGolden kFamilyGoldens[] = {
  {"size3i/0/LMI/newton-ac", {0x5e6064bdfffb5fbfull, 0x3fa95c90773342a8ull, 22}},
  {"size3i/0/LMI/fast-ipm", {0x399b9c0921af04e1ull, 0x3f9ff38719487581ull, 12}},
  {"size3i/0/LMIa/newton-ac", {0x9654a4aaeac7426eull, 0x3f932b7f4743c7f9ull, 22}},
  {"size3i/0/LMIa/fast-ipm", {0x7629a9b7bb407890ull, 0x3f9109d6490f367aull, 13}},
  {"size3i/0/LMIa+/newton-ac", {0x4d69544abea3ff7cull, 0x3f9329f65a9ae400ull, 22}},
  {"size3i/0/LMIa+/fast-ipm", {0x9911284347886297ull, 0x3f91086b22d6ebe5ull, 13}},
  {"size3i/1/LMI/newton-ac", {0xc05ff542cf7fcfb3ull, 0x3fad946a294fb4baull, 22}},
  {"size3i/1/LMI/fast-ipm", {0x400623adc1faa11dull, 0x3fab900c19d3efbfull, 12}},
  {"size3i/1/LMIa/newton-ac", {0xc7f9285f497ec49dull, 0x3f98abd22dd3e5bdull, 22}},
  {"size3i/1/LMIa/fast-ipm", {0x1e2cd45f3b7d9528ull, 0x3f9fdb37623fd338ull, 13}},
  {"size3i/1/LMIa+/newton-ac", {0x7a469d883f618a47ull, 0x3f9888a5b1cfbb35ull, 22}},
  {"size3i/1/LMIa+/fast-ipm", {0x52b9f0a19be29913ull, 0x3f9fb1ff07f2e4eeull, 13}},
  {"size3/0/LMI/newton-ac", {0x989ddc362f29875aull, 0x3fb08974319011f3ull, 21}},
  {"size3/0/LMI/fast-ipm", {0xb67ca2e32019226cull, 0x3fac776f6a7f2096ull, 12}},
  {"size3/0/LMIa/newton-ac", {0xdab9f3debc858acfull, 0x3f9dfdba8fd33231ull, 21}},
  {"size3/0/LMIa/fast-ipm", {0xd6c604b893683296ull, 0x3f95bb9d2c4174acull, 12}},
  {"size3/0/LMIa+/newton-ac", {0xeb2790b0ecc39d15ull, 0x3f9df8faa30d159aull, 21}},
  {"size3/0/LMIa+/fast-ipm", {0xf78fc342db01ea1bull, 0x3f95dc7e07e6c9fcull, 12}},
  {"size3/1/LMI/newton-ac", {0x78b3606f2364e069ull, 0x3fafe9270cf3df6eull, 21}},
  {"size3/1/LMI/fast-ipm", {0x1eeb5b34a284802aull, 0x3fa849e188e375d7ull, 12}},
  {"size3/1/LMIa/newton-ac", {0x1be297b82b8df455ull, 0x3faa3c4ba6c92025ull, 21}},
  {"size3/1/LMIa/fast-ipm", {0x94959526b163457bull, 0x3fa11b1318573f29ull, 12}},
  {"size3/1/LMIa+/newton-ac", {0x6b02d45fc2f5915aull, 0x3faa1c6cc4e7c806ull, 21}},
  {"size3/1/LMIa+/fast-ipm", {0xae42acf59fdcad42ull, 0x3fa100875a9914a5ull, 12}},
  {"size5i/0/LMI/newton-ac", {0x7b925fb29c0df2e3ull, 0x3f6b0d2a549893c0ull, 33}},
  {"size5i/0/LMI/fast-ipm", {0x43b8b44944fbede0ull, 0x3f6728ce5b98da03ull, 19}},
  {"size5i/0/LMIa/newton-ac", {0xbadf164ca02cf801ull, 0x3f69e64aad8675c7ull, 34}},
  {"size5i/0/LMIa/fast-ipm", {0x2426f5db627563caull, 0x3f68ee9782b2050cull, 26}},
  {"size5i/0/LMIa+/newton-ac", {0x23373fdbd55de80aull, 0x3f61ef9690185040ull, 34}},
  {"size5i/0/LMIa+/fast-ipm", {0x4505d2230fddae1bull, 0x3f60f4147c3bd709ull, 26}},
  {"size5i/1/LMI/newton-ac", {0x751f578bdafa9ff5ull, 0x3f6b4f75612542bdull, 33}},
  {"size5i/1/LMI/fast-ipm", {0x041512219c33c74cull, 0x3f6a620c59fae2f0ull, 25}},
  {"size5i/1/LMIa/newton-ac", {0xfe6978eca20f1664ull, 0x3f6ada1252f6c4bbull, 33}},
  {"size5i/1/LMIa/fast-ipm", {0x55370fcd0438bae1ull, 0x3f670c4b53985f2full, 19}},
  {"size5i/1/LMIa+/newton-ac", {0xe92275b8a0bc7bf5ull, 0x3f62cbe5682318d5ull, 33}},
  {"size5i/1/LMIa+/fast-ipm", {0x072ebe2476a6dd2eull, 0x3f61d51a2bbda23aull, 25}},
  {"size5/0/LMI/newton-ac", {0xc7cf92f70be4919full, 0x3f70a412565a5c05ull, 34}},
  {"size5/0/LMI/fast-ipm", {0xfe7db019d09efd9full, 0x3f6c34470918e2b6ull, 19}},
  {"size5/0/LMIa/newton-ac", {0x41c069e81c97f09aull, 0x3f70485d305b05bdull, 36}},
  {"size5/0/LMIa/fast-ipm", {0x5dad08220832ce84ull, 0x3f6b7e3f37971cbfull, 19}},
  {"size5/0/LMIa+/newton-ac", {0xec03ea4d4697f8edull, 0x3f6889c2d20a9b9dull, 36}},
  {"size5/0/LMIa+/fast-ipm", {0x0d649c8f52bca320ull, 0x3f674f46f3b48a72ull, 26}},
  {"size5/1/LMI/newton-ac", {0x70ca946075dfb0f6ull, 0x3f6de9b227cf1377ull, 32}},
  {"size5/1/LMI/fast-ipm", {0x6ea50e5353b0a41cull, 0x3f6ae8bb2a5891a8ull, 18}},
  {"size5/1/LMIa/newton-ac", {0xae90a273a9b64e72ull, 0x3f6db71a547ba54aull, 32}},
  {"size5/1/LMIa/fast-ipm", {0x86d635e9a1e71c9eull, 0x3f6cf8640ab1923full, 19}},
  {"size5/1/LMIa+/newton-ac", {0x6097112203afcbdcull, 0x3f659b72f6356473ull, 32}},
  {"size5/1/LMIa+/fast-ipm", {0xfba3f6fcd050cdbbull, 0x3f688de758257b35ull, 25}},
  {"size10/0/LMI/newton-ac", {0x7902e8676b9b0c04ull, 0x3f632c41c15300deull, 31}},
  {"size10/0/LMI/fast-ipm", {0x84454780c8e45436ull, 0x3f65b783807c7eedull, 27}},
  {"size10/0/LMIa/newton-ac", {0x654adafc4571e506ull, 0x3f6514c509c724b2ull, 32}},
  {"size10/0/LMIa/fast-ipm", {0x0a70c42b97fb0643ull, 0x3f656209126a94a0ull, 26}},
  {"size10/0/LMIa+/newton-ac", {0xb37814990ae98c62ull, 0x3f59f7964a2aa766ull, 32}},
  {"size10/0/LMIa+/fast-ipm", {0x04a43e1d1b8c3d61ull, 0x3f5a92a61a916c76ull, 26}},
  {"size10/1/LMI/newton-ac", {0xf68cfd1299e651d6ull, 0x3f63ccf0abb0c9b4ull, 32}},
  {"size10/1/LMI/fast-ipm", {0xcf3e13aeca5a34f8ull, 0x3f6559f410d8752aull, 26}},
  {"size10/1/LMIa/newton-ac", {0x21f81fdbc7881e22ull, 0x3f63b6d57fe55269ull, 32}},
  {"size10/1/LMIa/fast-ipm", {0x3fdda2cbd9dff0c1ull, 0x3f653f4199e13447ull, 26}},
  {"size10/1/LMIa+/newton-ac", {0xafa0bd8323ba80ebull, 0x3f57276d31356ecbull, 32}},
  {"size10/1/LMIa+/fast-ipm", {0xa7d04ad8cfe16711ull, 0x3f5a3d12bfc3714cull, 26}},
};

TEST(BarrierGolden, FamilyLyapunovSolvesAreBitIdentical) {
  const lyap::SynthesisOptions defaults;
  const struct {
    const char* name;
    LyapunovLmiConfig config;
  } methods[] = {
      {"LMI", {0.0, 0.0, defaults.kappa}},
      {"LMIa", {defaults.alpha, 0.0, defaults.kappa}},
      {"LMIa+", {defaults.alpha, defaults.nu, defaults.kappa}},
  };
  const model::PiGains gains[] = {model::engine_gains_mode0(),
                                  model::engine_gains_mode1()};
  std::size_t next = 0;
  for (const auto& bm : model::benchmark_family()) {
    if (bm.size > 10 || bm.name == "size10i") continue;
    for (std::size_t mode = 0; mode < 2; ++mode) {
      const Matrix a = model::close_loop_single_mode(bm.plant, gains[mode]).a;
      for (const auto& method : methods) {
        const LmiProblem problem = make_lyapunov_lmi(a, method.config);
        for (Backend b :
             {Backend::NewtonAnalyticCenter, Backend::FastInteriorPoint}) {
          const std::string name = bm.name + "/" + std::to_string(mode) +
                                   "/" + method.name + "/" + to_string(b);
          const Fingerprint got = fingerprint(solve_lmi(problem, b));
          ASSERT_LT(next, std::size(kFamilyGoldens)) << name;
          EXPECT_EQ(kFamilyGoldens[next].name, name);
          EXPECT_EQ(got, kFamilyGoldens[next].fp)
              << "  {\"" << name << "\", " << got << "},";
          ++next;
        }
      }
    }
  }
  EXPECT_EQ(next, std::size(kFamilyGoldens));
}

TEST(BarrierGolden, ShortStepSolveIsBitIdentical) {
  const auto& family = model::benchmark_family();
  const auto it = std::find_if(family.begin(), family.end(), [](const auto& bm) {
    return bm.name == "size3";
  });
  ASSERT_NE(it, family.end());
  const Matrix a =
      model::close_loop_single_mode(it->plant, model::engine_gains_mode0()).a;
  const Fingerprint got = fingerprint(solve_lmi(
      make_lyapunov_lmi(a, LyapunovLmiConfig{}), Backend::ShortStepBarrier));
  EXPECT_EQ(got, (Fingerprint{0xfad08c29b1f3c95dull, 0x3fa457a9647aaa90ull,
                              720}))
      << got;
}

TEST(BarrierGolden, PiecewiseSynthesisIsBitIdentical) {
  // The S-procedure pencils: all-zero coefficients, 1x1 multiplier blocks
  // and dense surface coefficients (the setting of piecewise_test).
  const model::StateSpace plant =
      model::balanced_truncation(model::make_engine_model(), 3).sys;
  Vector r{0.0, 1.0, 0.5, 1.0};
  const Vector w_eq =
      model::close_loop_single_mode(plant, model::engine_gains_mode1())
          .equilibrium(r);
  r[0] = 0.0;
  for (std::size_t j = 0; j < plant.num_states(); ++j)
    r[0] += plant.c(0, j) * w_eq[j];
  const model::PwaSystem sys =
      model::close_loop(plant, model::make_engine_controller(), r);
  const auto c = lyap::synthesize_piecewise(sys, r,
                                            lyap::SurfaceEncoding::Equality);
  ASSERT_TRUE(c.has_value());
  const std::uint64_t digest =
      fnv_bits({c->mu0, c->mu1, c->eta0, c->eta1},
               fnv_bits(c->p1_aug.data(), fnv_bits(c->p0_aug.data())));
  EXPECT_EQ(digest, 0x1ed4f543923f9285ull) << "0x" << std::hex << digest;
}

TEST(BarrierGolden, HandBuiltPencilsAreBitIdentical) {
  // Four variables over three blocks.  Variable 0 has an all-zero
  // coefficient everywhere (an empty pattern); variable 1 a fully dense
  // one; variable 2 a full row and column 0 but one- or two-entry columns
  // elsewhere (an arrowhead, the pattern of a Lie-block coefficient);
  // variable 3 a two-entry basis matrix.  The upper block bounds the
  // feasible set; the 1x1 block is dense by construction.
  const std::size_t n = 5;
  Matrix zero{n, n};
  Matrix dense{n, n};
  Matrix arrow{n, n};
  Matrix basis{n, n};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      dense(i, j) = 1.0 / static_cast<double>(1 + i + j) - (i == j ? 0.7 : 0.0);
    arrow(0, i) = arrow(i, 0) = i % 2 == 0 ? 0.5 : -1.0;
    arrow(i, i) = 0.25;
  }
  basis(3, 4) = basis(4, 3) = 1.0;
  LmiProblem problem;
  problem.num_vars = 4;
  problem.constraints.emplace_back(
      Matrix::identity(n) * 2.0,
      std::vector<Matrix>{zero, dense, arrow, basis});
  problem.constraints.emplace_back(
      Matrix::identity(n) * 3.0,
      std::vector<Matrix>{-zero, -dense, -arrow, -basis});
  problem.constraints.emplace_back(
      Matrix{{1.0}}, std::vector<Matrix>{Matrix{{0.0}}, Matrix{{0.3}},
                                         Matrix{{-0.2}}, Matrix{{0.0}}});
  LmiOptions options;
  options.target_margin = 0.09;  // centre well inside, not one step
  const Fingerprint goldens[] = {
      {0x1c2def94501197acull, 0x3ff2cd2819f4193aull, 8},
      {0x99e12c9dcb02cf3cull, 0x3ff0507db2f35a5dull, 1},
      {0x2a0c2291d67364dbull, 0x3ff17e7efae11514ull, 433},
  };
  std::size_t next = 0;
  for (Backend b : {Backend::NewtonAnalyticCenter, Backend::FastInteriorPoint,
                    Backend::ShortStepBarrier}) {
    const LmiSolution sol = solve_lmi(problem, b, options);
    EXPECT_TRUE(sol.feasible) << to_string(b);
    const Fingerprint got = fingerprint(sol);
    EXPECT_EQ(got, goldens[next++]) << to_string(b) << " " << got;
  }
  // evaluate() at a point where every coefficient contributes.
  const Matrix at =
      problem.constraints[0].evaluate(Vector{0.7, -0.3, 0.2, 0.9});
  EXPECT_EQ(fnv_bits(at.data()), 0x51c054828730ec47ull)
      << "0x" << std::hex << fnv_bits(at.data());
}

}  // namespace
}  // namespace spiv::sdp
