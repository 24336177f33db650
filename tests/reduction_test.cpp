// Tests for balanced truncation and the benchmark family (paper §VI-A).
#include "model/reduction.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "numeric/eigen.hpp"

namespace spiv::model {
namespace {

using numeric::Matrix;
using numeric::Vector;

TEST(BalancedTruncation, HankelValuesDescendAndReducedIsStable) {
  StateSpace engine = make_engine_model();
  ReducedModel red = balanced_truncation(engine, 5);
  ASSERT_EQ(red.hankel_singular_values.size(), 18u);
  for (std::size_t i = 1; i < 18; ++i)
    EXPECT_LE(red.hankel_singular_values[i],
              red.hankel_singular_values[i - 1] + 1e-12);
  EXPECT_GT(red.hankel_singular_values[0], 0.0);
  EXPECT_EQ(red.sys.num_states(), 5u);
  EXPECT_EQ(red.sys.num_inputs(), 3u);
  EXPECT_EQ(red.sys.num_outputs(), 4u);
  EXPECT_TRUE(red.sys.is_stable());
}

TEST(BalancedTruncation, FullOrderPreservesTransferFunctionDcGain) {
  StateSpace engine = make_engine_model();
  ReducedModel red = balanced_truncation(engine, 18);
  Matrix g_full = engine.dc_gain();
  Matrix g_red = red.sys.dc_gain();
  EXPECT_LT((g_full - g_red).max_abs(), 1e-6 * (1.0 + g_full.max_abs()));
}

TEST(BalancedTruncation, DcGainErrorShrinksWithOrder) {
  StateSpace engine = make_engine_model();
  Matrix g_full = engine.dc_gain();
  double prev_err = 1e100;
  for (std::size_t order : {3u, 5u, 10u, 15u}) {
    Matrix g_red = balanced_truncation(engine, order).sys.dc_gain();
    const double err = (g_full - g_red).max_abs();
    // Errors need not be strictly monotone, but must not blow up, and the
    // largest orders must be accurate.
    EXPECT_LT(err, prev_err * 10 + 1e-3) << "order " << order;
    prev_err = err;
  }
  EXPECT_LT((g_full - balanced_truncation(engine, 15).sys.dc_gain()).max_abs(),
            1e-3);
}

TEST(BalancedTruncation, TruncationErrorBoundedByDiscardedHsv) {
  // Classic bound on the DC-gain error: |G(0) - Gr(0)| <= 2 * sum tail HSV.
  StateSpace engine = make_engine_model();
  for (std::size_t order : {3u, 5u, 10u}) {
    ReducedModel red = balanced_truncation(engine, order);
    double tail = 0.0;
    for (std::size_t i = order; i < 18; ++i)
      tail += red.hankel_singular_values[i];
    const double err =
        numeric::spectral_norm(engine.dc_gain() - red.sys.dc_gain());
    EXPECT_LE(err, 2.0 * tail * (1.0 + 1e-6) + 1e-9) << "order " << order;
  }
}

TEST(BalancedTruncation, RejectsBadArguments) {
  StateSpace engine = make_engine_model();
  EXPECT_THROW(balanced_truncation(engine, 0), std::invalid_argument);
  EXPECT_THROW(balanced_truncation(engine, 19), std::invalid_argument);
  StateSpace unstable = engine;
  unstable.a(0, 0) = 10.0;  // destabilize
  if (!unstable.is_stable()) {
    EXPECT_THROW(balanced_truncation(unstable, 3), std::runtime_error);
  }
}

TEST(RoundToIntegers, RoundsEveryEntry) {
  StateSpace sys;
  sys.a = Matrix{{-1.4, 0.6}, {0.4, -2.6}};
  sys.b = Matrix{{0.9}, {-0.2}};
  sys.c = Matrix{{1.49, -0.51}};
  StateSpace r = round_to_integers(sys);
  EXPECT_DOUBLE_EQ(r.a(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(r.a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(r.a(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.a(1, 1), -3.0);
  EXPECT_DOUBLE_EQ(r.b(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.c(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.c(0, 1), -1.0);
}

TEST(BenchmarkFamily, MatchesPaperLayout) {
  auto family = make_benchmark_family();
  ASSERT_EQ(family.size(), 8u);
  // sizes 3i,3,5i,5,10i,10,15,18.
  EXPECT_EQ(family[0].name, "size3i");
  EXPECT_TRUE(family[0].integer_rounded);
  EXPECT_EQ(family[1].name, "size3");
  EXPECT_EQ(family[6].name, "size15");
  EXPECT_EQ(family[7].name, "size18");
  EXPECT_EQ(family[7].size, 18u);
  for (const auto& bm : family) {
    EXPECT_EQ(bm.plant.num_inputs(), 3u) << bm.name;
    EXPECT_EQ(bm.plant.num_outputs(), 4u) << bm.name;
    EXPECT_EQ(bm.plant.num_states(), bm.size) << bm.name;
  }
}

TEST(BenchmarkFamily, EveryClosedLoopModeIsHurwitz) {
  // The paper's Table I reports valid Lyapunov functions for every mode of
  // every benchmark, which presupposes stable closed loops.
  for (const auto& bm : make_benchmark_family()) {
    for (const PiGains& g : {engine_gains_mode0(), engine_gains_mode1()}) {
      PwaMode mode = close_loop_single_mode(bm.plant, g);
      EXPECT_TRUE(numeric::is_hurwitz(mode.a))
          << bm.name << " abscissa "
          << numeric::spectral_abscissa(mode.a);
    }
  }
}

TEST(BenchmarkFamily, EquilibriaLieInTheirRegions) {
  for (const auto& bm : make_benchmark_family()) {
    PwaSystem sys = close_loop(bm.plant, bm.controller, bm.references);
    for (std::size_t i = 0; i < 2; ++i) {
      Vector w_eq = sys.mode(i).equilibrium(bm.references);
      EXPECT_TRUE(sys.mode(i).contains(w_eq)) << bm.name << " mode " << i;
    }
  }
}

}  // namespace
}  // namespace spiv::model
