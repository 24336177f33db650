// Robustness to perturbation (paper §VI-C): synthesize certified robust
// regions around the stable states of both operating modes, compute the
// reference-perturbation radius eps, and *demonstrate* the guarantee by
// simulation: trajectories started inside W_i converge without switching.
//
// Build & run:  ./build/examples/robust_regions [order]
//   order: plant order to analyze (default 5; 18 = the full engine).
#include <cmath>
#include <cstdio>
#include <optional>
#include <random>

#include "core/env.hpp"
#include "model/reduction.hpp"
#include "robust/region.hpp"
#include "sim/integrator.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace spiv;
  using numeric::Vector;

  model::StateSpace engine = model::make_engine_model();
  std::size_t order = 5;
  if (argc > 1) {
    const std::optional<std::size_t> parsed =
        core::env::parse_positive(argv[1]);
    if (!parsed || *parsed > engine.num_states()) {
      std::fprintf(stderr, "invalid order '%s'\n", argv[1]);
      return 2;
    }
    order = *parsed;
  }
  model::StateSpace plant = order == engine.num_states()
                                ? engine
                                : model::balanced_truncation(engine, order).sys;
  model::SwitchedPiController controller = model::make_engine_controller();
  Vector r = model::make_engine_references(plant);
  model::PwaSystem system = model::close_loop(plant, controller, r);
  std::printf("plant order %zu -> closed loop with %zu states\n", order,
              system.dim());

  for (std::size_t mode = 0; mode < system.num_modes(); ++mode) {
    std::printf("=== mode %zu ===\n", mode);
    verify::VerifyContext ctx = verify::VerifyContext::from_env();
    verify::VerifyRequest req;
    req.a = system.mode(mode).a;
    req.method = lyap::Method::Lmi;
    const verify::VerifyOutcome res = verify::run_synthesize(ctx, req);
    if (!res.synthesized()) {
      std::printf("  synthesis failed\n");
      continue;
    }
    const lyap::Candidate& candidate = *res.candidate_ptr();
    robust::RobustRegion region =
        robust::synthesize_region(system, mode, candidate.p, r);
    if (region.flow_constant_on_surface) {
      std::printf("  flow constant on the surface: W = whole region\n");
    } else {
      std::printf("  k  = %.6g (certified %s, optimal within 1e-3: %s)\n",
                  region.k, region.certified ? "yes" : "NO",
                  region.optimal ? "yes" : "NO");
      std::printf("  vol(W) = %.3e   [%.2fs]\n", region.volume, region.seconds);
    }
    const double eps = robust::reference_robustness_epsilon(
        system, mode, candidate.p, r, region);
    std::printf("  eps = %.3e  (references within this ball keep the old\n"
                "                equilibrium inside the new robust region)\n",
                eps);

    if (region.flow_constant_on_surface || !region.certified) continue;

    // Demonstration: launch trajectories from the 0.9k level set of V and
    // watch them converge without a single mode switch.
    Vector w_eq = system.mode(mode).equilibrium(r);
    std::mt19937_64 rng{2024};
    std::normal_distribution<double> gauss;
    int launched = 0, clean = 0;
    for (int trial = 0; trial < 20; ++trial) {
      Vector dir(system.dim());
      for (auto& v : dir) v = gauss(rng);
      const double scale =
          std::sqrt(0.9 * region.k / candidate.p.quad_form(dir));
      Vector w0(system.dim());
      for (std::size_t i = 0; i < system.dim(); ++i)
        w0[i] = w_eq[i] + scale * dir[i];
      if (!system.mode(mode).contains(w0)) continue;
      ++launched;
      sim::SimOptions options;
      options.t_end = 300.0;
      options.convergence_radius = 1e-5;
      sim::Trajectory traj = sim::simulate(system, r, w0, options);
      if (traj.switches.empty() && traj.converged) ++clean;
    }
    std::printf("  simulation: %d/%d trajectories from the 0.9k shell "
                "converged switch-free\n",
                clean, launched);
  }
  return 0;
}
