// Tests for robust region synthesis and reference robustness (paper §VI-C).
#include "robust/region.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lyapunov/synthesis.hpp"
#include "model/engine.hpp"
#include "model/reduction.hpp"

namespace spiv::robust {
namespace {

using numeric::Matrix;
using numeric::Vector;

/// A hand-analyzable 1-state plant under PI control: the closed loop is a
/// 2-state PWA system with the engine's guard structure.
model::PwaSystem make_toy_system(Vector* r_out) {
  model::StateSpace plant;
  plant.a = Matrix{{-1}};
  plant.b = Matrix{{1}};
  plant.c = Matrix{{1}};
  model::SwitchedPiController ctrl;
  ctrl.gains = {model::PiGains{Matrix{{2.0}}, Matrix{{3.0}}},
                model::PiGains{Matrix{{1.0}}, Matrix{{1.0}}}};
  model::OutputGuard g0{Vector{1}, 1.0, Vector{-1}, true};   // y > r0 - 1
  model::OutputGuard g1{Vector{-1}, -1.0, Vector{1}, false}; // y <= r0 - 1
  ctrl.regions = {{g0}, {g1}};
  Vector r{5.0};
  if (r_out) *r_out = r;
  return model::close_loop(plant, ctrl, r);
}

TEST(EllipsoidVolume, MatchesClosedForms) {
  // Unit disk: pi; radius-2 disk: 4 pi.
  EXPECT_NEAR(ellipsoid_volume(Matrix::identity(2), 1.0), M_PI, 1e-10);
  EXPECT_NEAR(ellipsoid_volume(Matrix::identity(2), 4.0), 4.0 * M_PI, 1e-10);
  // Unit ball in 3D: 4/3 pi; ellipsoid with P = diag(1, 4): area pi/2.
  EXPECT_NEAR(ellipsoid_volume(Matrix::identity(3), 1.0), 4.0 / 3.0 * M_PI,
              1e-10);
  EXPECT_NEAR(ellipsoid_volume(Matrix::diagonal(Vector{1, 4}), 1.0),
              M_PI / 2.0, 1e-10);
  EXPECT_EQ(ellipsoid_volume(Matrix::identity(2), -1.0), 0.0);
}

TEST(RobustRegion, ToySystemCertifiedAndOptimal) {
  Vector r;
  model::PwaSystem sys = make_toy_system(&r);
  // Only mode 0 has its equilibrium inside its region in the SISO toy
  // (both modes track the same output, so both equilibrate at y = r0).
  for (std::size_t mode : {std::size_t{0}}) {
    auto cand = lyap::synthesize(sys.mode(mode).a, lyap::Method::EqNum);
    ASSERT_TRUE(cand.has_value());
    RobustRegion region = synthesize_region(sys, mode, cand->p, r);
    EXPECT_TRUE(region.certified) << "mode " << mode;
    EXPECT_TRUE(region.optimal) << "mode " << mode;
    if (!region.flow_constant_on_surface) {
      EXPECT_GT(region.k, 0.0);
      EXPECT_LT(region.k, region.k_supremum);
      EXPECT_GT(region.volume, 0.0);
    }
    const double eps = reference_robustness_epsilon(sys, mode, cand->p, r, region);
    EXPECT_GT(eps, 0.0) << "mode " << mode;
  }
}

TEST(RobustRegion, SublevelSetStaysInsideRegion) {
  // Sample points with V <= k on the switching surface side: each must
  // either satisfy V > k or lie inside the region (empirical check of the
  // set inclusion behind condition (24)).
  Vector r;
  model::PwaSystem sys = make_toy_system(&r);
  auto cand = lyap::synthesize(sys.mode(0).a, lyap::Method::EqNum);
  ASSERT_TRUE(cand.has_value());
  RobustRegion region = synthesize_region(sys, 0, cand->p, r);
  ASSERT_TRUE(region.certified);
  const Vector w_eq = sys.mode(0).equilibrium(r);
  const model::HalfSpace& hs = sys.mode(0).region[0];
  // Walk along the surface and verify: points on the surface with V <= k
  // have inward flow g.(Aw + b) > 0.
  const Vector drift = sys.mode(0).drift(r);
  int tested = 0;
  for (double t = -50.0; t <= 50.0; t += 0.25) {
    // Surface in 2D: g.w + h = 0 with g = (c, 0) here; parameterize the
    // free (second) coordinate by t around the equilibrium.
    Vector w(2);
    w[0] = -hs.h / hs.g[0];
    w[1] = w_eq[1] + t;
    Vector x{w[0] - w_eq[0], w[1] - w_eq[1]};
    const double v = cand->p.quad_form(x);
    if (v > region.k) continue;
    ++tested;
    Vector flow = sys.mode(0).a.apply(w);
    for (std::size_t i = 0; i < 2; ++i) flow[i] += drift[i];
    EXPECT_GT(numeric::dot(hs.g, flow), 0.0) << "t=" << t;
  }
  EXPECT_GT(tested, 0);  // the sublevel set must actually reach the surface
}

TEST(RobustRegion, EngineReducedModelBothModes) {
  model::StateSpace plant =
      model::balanced_truncation(model::make_engine_model(), 5).sys;
  model::SwitchedPiController ctrl = model::make_engine_controller();
  Vector r = model::make_engine_references(plant);
  model::PwaSystem sys = model::close_loop(plant, ctrl, r);
  for (std::size_t mode : {std::size_t{0}, std::size_t{1}}) {
    auto cand = lyap::synthesize(sys.mode(mode).a, lyap::Method::Lmi);
    ASSERT_TRUE(cand.has_value()) << "mode " << mode;
    RobustRegion region = synthesize_region(sys, mode, cand->p, r);
    EXPECT_TRUE(region.certified) << "mode " << mode;
    EXPECT_TRUE(region.optimal) << "mode " << mode;
    EXPECT_GT(region.seconds, 0.0);
    const double eps = reference_robustness_epsilon(sys, mode, cand->p, r, region);
    EXPECT_GT(eps, 0.0);
    EXPECT_LT(eps, 1e3);
  }
}

TEST(RobustRegion, RejectsIndefiniteCandidate) {
  Vector r;
  model::PwaSystem sys = make_toy_system(&r);
  Matrix bad{{1, 5}, {5, 1}};  // indefinite
  EXPECT_THROW((void)synthesize_region(sys, 0, bad, r), std::runtime_error);
}

TEST(RobustRegion, HonorsDeadline) {
  Vector r;
  model::PwaSystem sys = make_toy_system(&r);
  auto cand = lyap::synthesize(sys.mode(0).a, lyap::Method::EqNum);
  ASSERT_TRUE(cand.has_value());
  RegionOptions options;
  options.deadline = Deadline::after_seconds(-1.0);
  EXPECT_THROW((void)synthesize_region(sys, 0, cand->p, r, options),
               TimeoutError);
}

TEST(RobustRegion, StateRobustnessRadiusIsBallInsideW) {
  Vector r;
  model::PwaSystem sys = make_toy_system(&r);
  auto cand = lyap::synthesize(sys.mode(0).a, lyap::Method::EqNum);
  ASSERT_TRUE(cand.has_value());
  RobustRegion region = synthesize_region(sys, 0, cand->p, r);
  ASSERT_TRUE(region.certified);
  const double alpha = state_robustness_radius(sys, 0, cand->p, r, region);
  ASSERT_GT(alpha, 0.0);
  // Every point at distance < alpha from the equilibrium lies in W:
  // inside the region and with V <= k.
  const Vector w_eq = sys.mode(0).equilibrium(r);
  auto eig = numeric::symmetric_eigen(cand->p.symmetrized());
  for (double angle = 0.0; angle < 6.28; angle += 0.3) {
    Vector w{w_eq[0] + 0.999 * alpha * std::cos(angle),
             w_eq[1] + 0.999 * alpha * std::sin(angle)};
    EXPECT_TRUE(sys.mode(0).contains(w)) << "angle " << angle;
    Vector x{w[0] - w_eq[0], w[1] - w_eq[1]};
    EXPECT_LE(cand->p.quad_form(x), region.k * (1.0 + 1e-9));
  }
}

}  // namespace
}  // namespace spiv::robust
