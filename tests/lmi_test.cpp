// Tests for the LMI/SDP layer: pencils, the three backends, and the
// Lyapunov LMI constructors.
#include "sdp/lmi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

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
// Factored pencils.

/// The dense coefficient F_k, recovered as F(e_k) - F(0).
Matrix dense_coefficient(const MatrixPencil& pencil, std::size_t k) {
  Vector e(pencil.num_vars(), 0.0);
  e[k] = 1.0;
  return pencil.evaluate(e) - pencil.constant();
}

/// Reference barrier derivatives from dense matrices: the gradient
/// -tr(G^{-1} dG_a) and the Hessian tr(G^{-1} dG_a G^{-1} dG_b) summed over
/// blocks, dG = F_k for the p_k and -I for the slack.
BarrierDerivatives dense_barrier_derivatives(const LmiProblem& problem,
                                             const Vector& p, double t) {
  const std::size_t nx = problem.num_vars + 1;
  BarrierDerivatives d{Vector(nx, 0.0), Matrix{nx, nx}};
  for (const auto& pencil : problem.constraints) {
    const std::size_t n = pencil.dim();
    Matrix g = pencil.evaluate(p) - t * Matrix::identity(n);
    const Matrix ginv = *g.inverse();
    std::vector<Matrix> w;  // G^{-1} dG_x
    for (std::size_t k = 0; k < problem.num_vars; ++k)
      w.push_back(ginv * dense_coefficient(pencil, k));
    w.push_back(-ginv);
    for (std::size_t a = 0; a < nx; ++a) {
      for (std::size_t i = 0; i < n; ++i) d.grad[a] -= w[a](i, i);
      for (std::size_t b = 0; b < nx; ++b)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            d.hess(a, b) += w[a](i, j) * w[b](j, i);
    }
  }
  return d;
}

double max_abs(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

/// Factored against dense derivatives at the barrier's starting point
/// (p = 0, t one below the smallest eigenvalue) and at a centred point
/// (the newton-ac solution, t at half its margin).  Errors are relative to
/// the largest entry.
void expect_derivatives_match_dense(const LmiProblem& problem,
                                    const std::string& name) {
  const Vector origin(problem.num_vars, 0.0);
  const LmiSolution sol = solve_lmi(problem, Backend::NewtonAnalyticCenter);
  ASSERT_TRUE(sol.feasible) << name;
  const std::pair<Vector, double> points[] = {
      {origin, problem.min_eigenvalue(origin) - 1.0},
      {sol.p, 0.5 * sol.achieved_margin}};
  for (const auto& [p, t] : points) {
    const auto got = barrier_derivatives(problem, p, t);
    ASSERT_TRUE(got.has_value()) << name;
    const BarrierDerivatives want = dense_barrier_derivatives(problem, p, t);
    Vector grad_err = got->grad;
    for (std::size_t i = 0; i < grad_err.size(); ++i)
      grad_err[i] -= want.grad[i];
    EXPECT_LE(max_abs(grad_err), 1e-12 * max_abs(want.grad)) << name;
    EXPECT_LE((got->hess - want.hess).max_abs(), 1e-12 * want.hess.max_abs())
        << name;
    EXPECT_TRUE(got->hess.is_symmetric(0.0)) << name;
  }
}

/// Hand-built pencils through the dense constructor, shared by the
/// derivative check and BarrierGolden.HandBuiltPencilsAreBitIdentical.
LmiProblem hand_built_problem() {
  // Four variables over three blocks.  Variable 0 has an all-zero
  // coefficient everywhere (an empty pattern); variable 1 a fully dense
  // one; variable 2 a full row and column 0 but one- or two-entry columns
  // elsewhere (an arrowhead); variable 3 a two-entry basis matrix.  The
  // upper block bounds the feasible set; the 1x1 block is dense by
  // construction.
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
  return problem;
}

TEST(FactoredPencil, DerivativesMatchDenseAssembly) {
  const lyap::SynthesisOptions defaults;
  for (const auto& bm : model::benchmark_family()) {
    if (bm.name != "size3" && bm.name != "size5" && bm.name != "size10")
      continue;
    const Matrix a =
        model::close_loop_single_mode(bm.plant, model::engine_gains_mode0()).a;
    for (const LyapunovLmiConfig& config :
         {LyapunovLmiConfig{0.0, 0.0, defaults.kappa},
          LyapunovLmiConfig{defaults.alpha, defaults.nu, defaults.kappa}})
      expect_derivatives_match_dense(
          make_lyapunov_lmi(a, config),
          bm.name + " alpha=" + std::to_string(config.alpha));
  }
  expect_derivatives_match_dense(hand_built_problem(), "hand-built");

  // A general dictionary (4 x 3, no symmetry between S D and D^T S) with
  // one- and two-term coefficients, as 2I + F(p) > 0 and 3I - F(p) > 0.
  std::mt19937_64 rng{23};
  std::normal_distribution<double> normal;
  Matrix d{4, 3};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) d(i, j) = normal(rng);
  using Term = MatrixPencil::Term;
  const std::vector<std::vector<Term>> plus{
      {{0, 2, 0.5}}, {{3, 0, -0.4}, {1, 1, 0.3}}, {{2, 2, 0.7}}};
  std::vector<std::vector<Term>> minus = plus;
  for (auto& coeff : minus)
    for (auto& t : coeff) t.w = -t.w;
  LmiProblem general;
  general.num_vars = 3;
  general.constraints.emplace_back(Matrix::identity(4) * 2.0, d, plus);
  general.constraints.emplace_back(Matrix::identity(4) * 3.0, d, minus);
  expect_derivatives_match_dense(general, "general dictionary");
}

TEST(FactoredPencil, EvaluateMatchesDenseLyapunovBlocks) {
  std::mt19937_64 rng{17};
  std::normal_distribution<double> normal;
  for (std::size_t n : {1u, 4u, 9u}) {
    Matrix a{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = normal(rng);
    const LyapunovLmiConfig config{0.3, 0.01, 2.0};
    const LmiProblem problem = make_lyapunov_lmi(a, config);
    for (int trial = 0; trial < 5; ++trial) {
      Vector p(problem.num_vars);
      for (auto& v : p) v = normal(rng);
      const Matrix pm = unvech_double(p, n);
      const Matrix eye = Matrix::identity(n);
      const Matrix want[] = {
          pm - config.nu * eye,
          config.kappa * eye - pm,
          -(a.transposed() * pm + pm * a) - config.alpha * pm,
      };
      for (std::size_t b = 0; b < 3; ++b) {
        const Matrix got = problem.constraints[b].evaluate(p);
        EXPECT_TRUE(got.is_symmetric(0.0));
        EXPECT_LE((got - want[b]).max_abs(), 1e-14 * (1.0 + want[b].max_abs()))
            << "n=" << n << " block " << b;
      }
    }
  }
}

TEST(FactoredPencil, RejectsMalformedTerms) {
  using Term = MatrixPencil::Term;
  const Matrix f0{2, 2};
  const Matrix d{2, 3};
  EXPECT_NO_THROW(MatrixPencil(f0, d, {{Term{1, 2, 1.0}}}));
  EXPECT_THROW(MatrixPencil(f0, d, {{Term{2, 0, 1.0}}}), std::invalid_argument);
  EXPECT_THROW(MatrixPencil(f0, d, {{}, {Term{0, 3, 1.0}}}),
               std::invalid_argument);
  EXPECT_THROW(MatrixPencil(f0, Matrix{3, 3}, {}), std::invalid_argument);
  EXPECT_THROW(MatrixPencil(Matrix{2, 3}, d, {}), std::invalid_argument);
  // The dense constructor takes symmetric coefficients only.
  EXPECT_THROW(MatrixPencil(f0, {Matrix{{0, 1}, {0, 0}}}),
               std::invalid_argument);
}

TEST(FactoredPencil, DenseCoefficientsMapOntoTheIdentity) {
  const Matrix f0{{1, 0}, {0, 1}};
  const MatrixPencil pencil{f0, {Matrix{{2, -1}, {-1, 0}}, Matrix{2, 2}}};
  EXPECT_TRUE(pencil.identity_dictionary());
  ASSERT_EQ(pencil.terms(0).size(), 2u);
  EXPECT_EQ(pencil.terms(0)[0].w, 1.0);  // half the diagonal entry
  EXPECT_EQ(pencil.terms(0)[1].w, -1.0);
  EXPECT_TRUE(pencil.terms(1).empty());
  EXPECT_EQ(dense_coefficient(pencil, 0).data(),
            (Matrix{{2, -1}, {-1, 0}}).data());
}

/// The references of piecewise_test: r0 puts the mode-1 equilibrium in R0.
model::PwaSystem piecewise_size3_system(Vector& r) {
  const model::StateSpace plant =
      model::balanced_truncation(model::make_engine_model(), 3).sys;
  r = Vector{0.0, 1.0, 0.5, 1.0};
  const Vector w_eq =
      model::close_loop_single_mode(plant, model::engine_gains_mode1())
          .equilibrium(r);
  r[0] = 0.0;
  for (std::size_t j = 0; j < plant.num_states(); ++j)
    r[0] += plant.c(0, j) * w_eq[j];
  return model::close_loop(plant, model::make_engine_controller(), r);
}

TEST(FactoredPencil, PiecewiseNewtonSystemsWithWideDiagonalsFactor) {
  // Regression: the S-procedure Newton matrices mix the multipliers with
  // the P entries, and their diagonals span ~1e-6 to ~1e5.  Under an
  // absolute diagonal shift of 1e-12, below roundoff at that scale, their
  // Cholesky factorization met a negative pivot and synthesis returned no
  // candidate under either encoding; the shift is now relative to the
  // largest diagonal entry.
  Vector r;
  const model::PwaSystem sys = piecewise_size3_system(r);
  lyap::PiecewiseOptions options;
  options.backend = Backend::FastInteriorPoint;
  for (auto encoding :
       {lyap::SurfaceEncoding::Equality, lyap::SurfaceEncoding::Relaxed})
    EXPECT_TRUE(
        lyap::synthesize_piecewise(sys, r, encoding, options).has_value())
        << (encoding == lyap::SurfaceEncoding::Equality ? "equality"
                                                        : "relaxed");
}

// ---------------------------------------------------------------------------
// Bit-identity goldens.  Every fingerprint below was recorded from the
// factored Newton assembly (rank-2 pencil terms, O(1) Hessian pairs, a
// Cholesky Newton step with a relative diagonal shift).  The solver must
// reproduce p, achieved_margin and the iteration count to the bit: a change
// to the SDP layer that moves a single bit of any of them must say so and
// re-record these values.

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
  {"size3i/0/LMI/newton-ac", {0x7a999b79831f740dull, 0x3fa95c9077230dbdull, 22}},
  {"size3i/0/LMI/fast-ipm", {0x6beedc5b11e3e99dull, 0x3f9ff3871935aff7ull, 12}},
  {"size3i/0/LMIa/newton-ac", {0x4ca766911bcf9feeull, 0x3f932b7f4733f4eaull, 22}},
  {"size3i/0/LMIa/fast-ipm", {0x3b944fdfae53286bull, 0x3f9109d648fa4071ull, 13}},
  {"size3i/0/LMIa+/newton-ac", {0x23e5abde4a361360ull, 0x3f9329f65a8b48ebull, 22}},
  {"size3i/0/LMIa+/fast-ipm", {0xc26e4fbbc26bac0dull, 0x3f91086b22c23c3eull, 13}},
  {"size3i/1/LMI/newton-ac", {0xbd19729e254d1ee5ull, 0x3fad946a294fad0full, 22}},
  {"size3i/1/LMI/fast-ipm", {0xc3652f3780adce98ull, 0x3fab900c19d2f677ull, 12}},
  {"size3i/1/LMIa/newton-ac", {0x6be025e64fece145ull, 0x3f98abd22dc4ba2eull, 22}},
  {"size3i/1/LMIa/fast-ipm", {0x3a50bc7a6c32a087ull, 0x3f9fdb3762284ae1ull, 13}},
  {"size3i/1/LMIa+/newton-ac", {0xa0cf0e3bd7560d89ull, 0x3f9888a5b1c0ba77ull, 22}},
  {"size3i/1/LMIa+/fast-ipm", {0xf269472cdb3c7fdaull, 0x3f9fb1ff07dbce15ull, 13}},
  {"size3/0/LMI/newton-ac", {0xdcf9983a76093ba4ull, 0x3fb08974318a62e5ull, 21}},
  {"size3/0/LMI/fast-ipm", {0x528de133ead17d4cull, 0x3fac776f6a6801d9ull, 12}},
  {"size3/0/LMIa/newton-ac", {0x7fd3dcdbedc09a55ull, 0x3f9dfdba8fc3aa2full, 21}},
  {"size3/0/LMIa/fast-ipm", {0x1c9f621ee32bc619ull, 0x3f95bb9d2c224913ull, 12}},
  {"size3/0/LMIa+/newton-ac", {0x74188b3720751a1bull, 0x3f9df8faa2fdb08full, 21}},
  {"size3/0/LMIa+/fast-ipm", {0x03e73f04d6f944b8ull, 0x3f95dc7e07c85340ull, 12}},
  {"size3/1/LMI/newton-ac", {0xd08e49f0c656ca99ull, 0x3fafe9270cf44e50ull, 21}},
  {"size3/1/LMI/fast-ipm", {0xe2dd44877251c47eull, 0x3fa849e188dd2f27ull, 12}},
  {"size3/1/LMIa/newton-ac", {0xd885758439fbff41ull, 0x3faa3c4ba6c3259aull, 21}},
  {"size3/1/LMIa/fast-ipm", {0xa2511fdb5fbc4fa4ull, 0x3fa11b13184f30e6ull, 12}},
  {"size3/1/LMIa+/newton-ac", {0x1d1b196a203172d2ull, 0x3faa1c6cc4e1e07aull, 21}},
  {"size3/1/LMIa+/fast-ipm", {0x7d43eae5994f9bccull, 0x3fa100875a912c69ull, 12}},
  {"size5i/0/LMI/newton-ac", {0x4ed12a903e1ed222ull, 0x3f6b0d2a524061f2ull, 33}},
  {"size5i/0/LMI/fast-ipm", {0xc5b25cccc6808eabull, 0x3f6728ce5a844b27ull, 19}},
  {"size5i/0/LMIa/newton-ac", {0x2189e844b754829full, 0x3f69e64aa9aa3df1ull, 34}},
  {"size5i/0/LMIa/fast-ipm", {0x585022e332513e04ull, 0x3f68ee97810440a2ull, 26}},
  {"size5i/0/LMIa+/newton-ac", {0x38eb3859fadbfc11ull, 0x3f61ef968c644cf4ull, 34}},
  {"size5i/0/LMIa+/fast-ipm", {0xf73ac73032500336ull, 0x3f60f4147a93f206ull, 26}},
  {"size5i/1/LMI/newton-ac", {0xbab6428cad43f48dull, 0x3f6b4f755f765173ull, 33}},
  {"size5i/1/LMI/fast-ipm", {0x651a9d62ae2153adull, 0x3f6a620c5918c304ull, 25}},
  {"size5i/1/LMIa/newton-ac", {0xaf3a6bc70c19b8f8ull, 0x3f6ada12509b6898ull, 33}},
  {"size5i/1/LMIa/fast-ipm", {0xfcc9f6325c983d1full, 0x3f670c4b52b0cc9full, 19}},
  {"size5i/1/LMIa+/newton-ac", {0x8d2280501473acf7ull, 0x3f62cbe565d3ec3cull, 33}},
  {"size5i/1/LMIa+/fast-ipm", {0x670009911bfd3df8ull, 0x3f61d51a2a92b723ull, 25}},
  {"size5/0/LMI/newton-ac", {0x570c24d25e5419d8ull, 0x3f70a4125584c436ull, 34}},
  {"size5/0/LMI/fast-ipm", {0xe23341d486702a42ull, 0x3f6c3447082433c7ull, 19}},
  {"size5/0/LMIa/newton-ac", {0xeb681094078cbbb8ull, 0x3f70485d2f085ac4ull, 36}},
  {"size5/0/LMIa/fast-ipm", {0x75598fc5153ee73cull, 0x3f6b7e3f36358ca5ull, 19}},
  {"size5/0/LMIa+/newton-ac", {0x7d8c912e0341fd08ull, 0x3f6889c2cf775cdeull, 36}},
  {"size5/0/LMIa+/fast-ipm", {0x663f6f3b6918b3deull, 0x3f674f46f2662803ull, 26}},
  {"size5/1/LMI/newton-ac", {0x71105ee6e7d894ceull, 0x3f6de9b227432421ull, 32}},
  {"size5/1/LMI/fast-ipm", {0x0cefb12974514b82ull, 0x3f6ae8bb2a0c5499ull, 18}},
  {"size5/1/LMIa/newton-ac", {0xcf5540e7326420dcull, 0x3f6db71a53d3344aull, 32}},
  {"size5/1/LMIa/fast-ipm", {0x1b6b6d4aa6aa3a0dull, 0x3f6cf8640a0153b1ull, 19}},
  {"size5/1/LMIa+/newton-ac", {0x93f671656589bcf2ull, 0x3f659b72f58dd7a3ull, 32}},
  {"size5/1/LMIa+/fast-ipm", {0xe28bc30612878a66ull, 0x3f688de757792d69ull, 25}},
  {"size10/0/LMI/newton-ac", {0xd94cc19600a5e678ull, 0x3f632c41c0a05bbbull, 31}},
  {"size10/0/LMI/fast-ipm", {0xfdae4e74886c43daull, 0x3f65b7837f6ac51aull, 27}},
  {"size10/0/LMIa/newton-ac", {0x9643ab8c28cb8cd2ull, 0x3f6514c507b77c22ull, 32}},
  {"size10/0/LMIa/fast-ipm", {0x9fa3aaeb81d1071full, 0x3f65620910ccaef6ull, 26}},
  {"size10/0/LMIa+/newton-ac", {0x3eb93093d84a1306ull, 0x3f59f796462547adull, 32}},
  {"size10/0/LMIa+/fast-ipm", {0xb02362432c39ad65ull, 0x3f5a92a617674703ull, 26}},
  {"size10/1/LMI/newton-ac", {0x5bf9e862af1e8935ull, 0x3f63ccf0ab508779ull, 32}},
  {"size10/1/LMI/fast-ipm", {0xe64c667efa79859eull, 0x3f6559f41065b37full, 26}},
  {"size10/1/LMIa/newton-ac", {0x77be888b8676f871ull, 0x3f63b6d57f7419daull, 32}},
  {"size10/1/LMIa/fast-ipm", {0x7f6632018dd3a0f5ull, 0x3f653f41995f7cb5ull, 26}},
  {"size10/1/LMIa+/newton-ac", {0x26849c8647f454d5ull, 0x3f57276d3053ba4aull, 32}},
  {"size10/1/LMIa+/fast-ipm", {0x86e9bd1e90ee89f1ull, 0x3f5a3d12bec0818full, 26}},
};

// size15 and size18, whose Newton systems (172 and 232 unknowns) are the
// ones large enough for the blocked SPD factor's trailing-tile update.
const FamilyGolden kLargeFamilyGoldens[] = {
  {"size15/0/LMI/newton-ac", {0x3b64cfe15abeb4feull, 0x3f62cec3f13de2a8ull, 33}},
  {"size15/0/LMI/fast-ipm", {0xcd5b0e1f8c0b3667ull, 0x3f6527e09f0ec33dull, 29}},
  {"size15/0/LMIa/newton-ac", {0xcd9873246471a7edull, 0x3f649734a5ee43f6ull, 34}},
  {"size15/0/LMIa/fast-ipm", {0x93116fd4d08f4f60ull, 0x3f64d69d3ce7f827ull, 27}},
  {"size15/0/LMIa+/newton-ac", {0x3e7a043c86acf864ull, 0x3f58fa0f6a3d813full, 34}},
  {"size15/0/LMIa+/fast-ipm", {0xf51df0ebd024f2dcull, 0x3f5979bf13e20340ull, 27}},
  {"size15/1/LMI/newton-ac", {0x2855211be141ba6aull, 0x3f64e468b01d7c75ull, 33}},
  {"size15/1/LMI/fast-ipm", {0xbe7afdd8aafa7c23ull, 0x3f6754c73a508bf7ull, 28}},
  {"size15/1/LMIa/newton-ac", {0xebf60d0ca356ffebull, 0x3f6342de7517856cull, 33}},
  {"size15/1/LMIa/fast-ipm", {0x411704e6ab2d7cadull, 0x3f658f6b4ecb5907ull, 28}},
  {"size15/1/LMIa+/newton-ac", {0x1e9b9bd9e52c13aeull, 0x3f5f64e626836e28ull, 34}},
  {"size15/1/LMIa+/fast-ipm", {0x9609923d581560cdull, 0x3f5add377188cd2cull, 28}},
  {"size18/0/LMI/newton-ac", {0xd17f0322f8de851eull, 0x3f53ebc909e45a31ull, 41}},
  {"size18/0/LMI/fast-ipm", {0xcce4abcc66b73257ull, 0x3f5336440b9a916cull, 30}},
  {"size18/0/LMIa/newton-ac", {0x650a8620fbeb99b1ull, 0x3f53a561febad997ull, 48}},
  {"size18/0/LMIa/fast-ipm", {0x1fafc088fe9c34bcull, 0x3f531a45f44b049full, 30}},
  {"size18/0/LMIa+/newton-ac", {0xef4be53af68b5a1cull, 0x3f32a8ceebefd122ull, 48}},
  {"size18/0/LMIa+/fast-ipm", {0xc955b17e8520125aull, 0x3f3a2fe282a3d39full, 32}},
  {"size18/1/LMI/newton-ac", {0xe56dc1740c076931ull, 0x3f53f19873675cb4ull, 43}},
  {"size18/1/LMI/fast-ipm", {0xd85de6f9c0d422fcull, 0x3f5342a8ae5343d4ull, 30}},
  {"size18/1/LMIa/newton-ac", {0x1f3c16c3d7f03073ull, 0x3f53dc2356d69653ull, 43}},
  {"size18/1/LMIa/fast-ipm", {0xf3e0db124596aeb2ull, 0x3f5330ce5d995747ull, 30}},
  {"size18/1/LMIa+/newton-ac", {0x00ce80533ceff799ull, 0x3f3394eb0b01bb94ull, 44}},
  {"size18/1/LMIa+/fast-ipm", {0x9bb36d7e6d63177dull, 0x3f3394cd61858c2cull, 31}},
};

/// Solve every plant of the family that `take` accepts, in both modes,
/// under LMI/LMIa/LMIa+ and both Newton backends, against `goldens` in order.
template <std::size_t N, typename Take>
void expect_family_goldens(const FamilyGolden (&goldens)[N], Take take) {
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
    if (!take(bm)) continue;
    for (std::size_t mode = 0; mode < 2; ++mode) {
      const Matrix a = model::close_loop_single_mode(bm.plant, gains[mode]).a;
      for (const auto& method : methods) {
        const LmiProblem problem = make_lyapunov_lmi(a, method.config);
        for (Backend b :
             {Backend::NewtonAnalyticCenter, Backend::FastInteriorPoint}) {
          const std::string name = bm.name + "/" + std::to_string(mode) +
                                   "/" + method.name + "/" + to_string(b);
          const Fingerprint got = fingerprint(solve_lmi(problem, b));
          ASSERT_LT(next, N) << "  {\"" << name << "\", " << got << "},";
          EXPECT_EQ(goldens[next].name, name);
          EXPECT_EQ(got, goldens[next].fp)
              << "  {\"" << name << "\", " << got << "},";
          ++next;
        }
      }
    }
  }
  EXPECT_EQ(next, N);
}

TEST(BarrierGolden, FamilyLyapunovSolvesAreBitIdentical) {
  expect_family_goldens(kFamilyGoldens, [](const auto& bm) {
    return bm.size <= 10 && bm.name != "size10i";
  });
}

TEST(BarrierGolden, LargeFamilyLyapunovSolvesAreBitIdentical) {
  expect_family_goldens(kLargeFamilyGoldens,
                        [](const auto& bm) { return bm.size > 10; });
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
  EXPECT_EQ(got, (Fingerprint{0xf7ceb24862519afaull, 0x3fa457a9647931b2ull,
                              720}))
      << got;
}

TEST(BarrierGolden, PiecewiseSynthesisIsBitIdentical) {
  // The S-procedure pencils: all-zero coefficients, 1x1 multiplier blocks
  // and dense surface coefficients (the setting of piecewise_test).
  Vector r;
  const model::PwaSystem sys = piecewise_size3_system(r);
  const auto c = lyap::synthesize_piecewise(sys, r,
                                            lyap::SurfaceEncoding::Equality);
  ASSERT_TRUE(c.has_value());
  const std::uint64_t digest =
      fnv_bits({c->mu0, c->mu1, c->eta0, c->eta1},
               fnv_bits(c->p1_aug.data(), fnv_bits(c->p0_aug.data())));
  EXPECT_EQ(digest, 0x5a5b52161a825399ull) << "0x" << std::hex << digest;
}

TEST(BarrierGolden, HandBuiltPencilsAreBitIdentical) {
  const LmiProblem problem = hand_built_problem();
  LmiOptions options;
  options.target_margin = 0.09;  // centre well inside, not one step
  const Fingerprint goldens[] = {
      {0x11e3f3024ff6b538ull, 0x3ff2cd2819f4036aull, 8},
      {0x98c68e19fa9f20cbull, 0x3ff0507db2f35976ull, 1},
      {0x8b0b1ecabf7e996bull, 0x3ff17e7efae112c0ull, 433},
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
  EXPECT_EQ(fnv_bits(at.data()), 0xb3fa7e6504ac54c7ull)
      << "0x" << std::hex << fnv_bits(at.data());
}

}  // namespace
}  // namespace spiv::sdp
