// Edge-case and failure-injection tests across modules: inputs at the
// boundary of each contract, and the error paths a downstream user will
// eventually hit.
#include <gtest/gtest.h>

#include <random>

#include "exact/bigint.hpp"
#include "exact/rational.hpp"
#include "model/switched_pi.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lyapunov.hpp"
#include "sdp/lmi.hpp"
#include "sim/integrator.hpp"

namespace spiv {
namespace {

using exact::BigInt;
using exact::Rational;
using numeric::Matrix;
using numeric::Vector;

// ---------------------------------------------------------------- BigInt

TEST(BigIntEdge, DivisionNearLimbBoundaries) {
  // Operands straddling 2^32 / 2^64 boundaries stress the Knuth D code.
  for (const char* num : {"4294967295", "4294967296", "4294967297",
                          "18446744073709551615", "18446744073709551616",
                          "79228162514264337593543950336"}) {  // 2^96
    for (const char* den : {"4294967295", "4294967296", "65536",
                            "18446744073709551615"}) {
      BigInt a{num}, b{den};
      auto [q, r] = BigInt::div_mod(a, b);
      EXPECT_EQ(q * b + r, a) << num << "/" << den;
      EXPECT_LT(r, b);
      EXPECT_GE(r, BigInt{0});
    }
  }
}

TEST(BigIntEdge, AddBackBranchStress) {
  // Random dividends just below divisor * 2^32k exercise the rare
  // "add back" correction of Algorithm D.
  std::mt19937_64 rng{501};
  for (int iter = 0; iter < 200; ++iter) {
    BigInt b{static_cast<std::int64_t>(rng() | 0x8000000000000000ull) >> 1};
    if (b.is_zero() || b.is_negative()) continue;
    BigInt scale = BigInt{1}.shifted_left(64 + rng() % 64);
    BigInt a = b * scale - BigInt{static_cast<std::int64_t>(rng() % 1000 + 1)};
    auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
  }
}

TEST(BigIntEdge, ShiftBoundaries) {
  BigInt v{"123456789012345678901234567890"};
  EXPECT_EQ(v.shifted_left(0), v);
  EXPECT_EQ(v.shifted_right(0), v);
  EXPECT_EQ(v.shifted_left(32).shifted_right(32), v);
  EXPECT_EQ(v.shifted_left(31).shifted_right(31), v);
  EXPECT_EQ(v.shifted_left(33).shifted_right(33), v);
  EXPECT_TRUE(v.shifted_right(1000).is_zero());
}

TEST(RationalEdge, ExtremeDoubles) {
  // Denormals and extreme exponents convert exactly and round-trip.
  for (double v : {5e-324, 1e-308, 1.7976931348623157e308, -2.2250738585072014e-308}) {
    Rational r = Rational::from_double_exact(v);
    EXPECT_EQ(r.to_double(), v) << v;
  }
}

TEST(RationalEdge, RoundedOfTinyAndHuge) {
  EXPECT_EQ(Rational::from_double_rounded(1.23456789e-30, 3),
            Rational{"1.23e-30"});
  EXPECT_EQ(Rational::from_double_rounded(-9.87654321e+25, 2),
            Rational{"-9.9e25"});
}

// ------------------------------------------------------------ numeric

TEST(NumericEdge, OneByOneAndEmptyMatrices) {
  Matrix one{{-3.0}};
  EXPECT_TRUE(numeric::is_hurwitz(one));
  auto e = numeric::eigen_decompose(one);
  EXPECT_NEAR(e.values[0].real(), -3.0, 1e-14);
  auto p = numeric::solve_lyapunov(one, Matrix::identity(1));
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR((*p)(0, 0), 1.0 / 6.0, 1e-14);
}

TEST(NumericEdge, SchurOfSymmetricMatchesJacobi) {
  std::mt19937_64 rng{502};
  std::normal_distribution<double> d;
  Matrix a{6, 6};
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) a(i, j) = d(rng);
  Matrix s = a.symmetrized();
  auto jac = numeric::symmetric_eigen(s);
  auto vals = numeric::eigenvalues(s);
  std::vector<double> reals;
  for (auto v : vals) {
    EXPECT_NEAR(v.imag(), 0.0, 1e-8);
    reals.push_back(v.real());
  }
  std::sort(reals.begin(), reals.end());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(reals[i], jac.values[i], 1e-8);
}

// --------------------------------------------------------------- model

TEST(ModelEdge, ModeOfThrowsOutsideAllRegions) {
  model::PwaMode m;
  m.a = Matrix{{-1.0}};
  m.b = Matrix{1, 1};
  m.region.push_back(model::HalfSpace{Vector{1.0}, -5.0, false});  // w >= 5
  model::PwaSystem sys{{m}, 1, 0, 1};
  EXPECT_EQ(sys.mode_of(Vector{6.0}), 0u);
  EXPECT_THROW((void)sys.mode_of(Vector{0.0}), std::runtime_error);
}

TEST(ModelEdge, PwaSystemRejectsEmptyAndMismatched) {
  EXPECT_THROW((model::PwaSystem{{}, 1, 0, 1}), std::invalid_argument);
  model::PwaMode bad;
  bad.a = Matrix{{-1.0}};
  bad.b = Matrix{1, 1};
  EXPECT_THROW((model::PwaSystem{{bad}, 2, 1, 1}), std::invalid_argument);
}

TEST(ModelEdge, SingularModeEquilibriumThrows) {
  model::PwaMode m;
  m.a = Matrix{{0.0}};  // singular
  m.b = Matrix{{1.0}};
  EXPECT_THROW(m.equilibrium(Vector{1.0}), std::runtime_error);
}

// ----------------------------------------------------------------- sim

TEST(SimEdge, MaxStepsBoundsWork) {
  model::PwaMode m;
  m.a = Matrix{{-1.0}};
  m.b = Matrix{1, 1};
  m.region.push_back(model::HalfSpace{Vector{0.0}, 1.0, false});
  model::PwaSystem sys{{m}, 1, 0, 1};
  sim::SimOptions options;
  options.t_end = 1e9;        // far horizon
  options.max_steps = 50;     // but hard step bound
  options.dt_max = 1e-3;
  auto traj = sim::simulate(sys, Vector{0.0}, Vector{1.0}, options);
  EXPECT_LT(traj.back().t, 1.0);  // stopped early by the step bound
}

TEST(SimEdge, ChatteringNearSurfaceIsBounded) {
  // Two modes whose flows both push toward the same surface from either
  // side: the integrator must localize crossings and make progress (no
  // infinite loop), even though the trajectory slides near the surface.
  model::PwaMode left, right;
  left.a = Matrix{{0.0}};
  left.b = Matrix{{1.0}};   // wdot = +1 (pushes right)
  left.region.push_back(model::HalfSpace{Vector{-1.0}, 0.0, false});  // w <= 0
  right.a = Matrix{{0.0}};
  right.b = Matrix{{-1.0}};  // wdot = -1 (pushes left)
  right.region.push_back(model::HalfSpace{Vector{1.0}, 0.0, true});  // w > 0
  model::PwaSystem sys{{left, right}, 1, 0, 1};
  sim::SimOptions options;
  options.t_end = 0.5;
  options.max_steps = 20000;
  auto traj = sim::simulate(sys, Vector{1.0}, Vector{-0.3}, options);
  // Slides to the surface and chatters in a tiny band around it.
  EXPECT_LT(std::abs(traj.back().w[0]), 1e-2);
  EXPECT_GT(traj.switches.size(), 0u);
}

// ----------------------------------------------------------------- sdp

TEST(SdpEdge, EmptyProblemRejected) {
  sdp::LmiProblem empty;
  empty.num_vars = 1;
  EXPECT_THROW(solve_lmi(empty, sdp::Backend::NewtonAnalyticCenter),
               std::invalid_argument);
}

TEST(SdpEdge, InfeasibleIntervalReported) {
  // p > 1 and p < 0 simultaneously: infeasible.
  sdp::LmiProblem problem;
  problem.num_vars = 1;
  problem.constraints.emplace_back(Matrix{{-1.0}},
                                   std::vector<Matrix>{Matrix{{1.0}}});
  problem.constraints.emplace_back(Matrix{{0.0}},
                                   std::vector<Matrix>{Matrix{{-1.0}}});
  for (auto backend :
       {sdp::Backend::NewtonAnalyticCenter, sdp::Backend::FastInteriorPoint}) {
    sdp::LmiOptions options;
    options.max_iterations = 50;
    auto sol = solve_lmi(problem, backend, options);
    EXPECT_FALSE(sol.feasible && sol.achieved_margin > 1e-9);
  }
}

}  // namespace
}  // namespace spiv
