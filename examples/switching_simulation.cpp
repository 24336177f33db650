// The switching behaviour of the engine control loop (paper §V-B): start
// the engine from rest with thrust-demand references; the LPC spool-speed
// limiter (mode 1) is active while r0 - y0 >= Theta, and the loop hands
// over to the thrust controller (mode 0) only if the spool-speed command
// allows it.  Prints a time series of the four outputs and the active mode
// plus all switching events.
//
// Build & run:  ./build/examples/switching_simulation [order]
#include <cstdio>
#include <optional>

#include "core/env.hpp"
#include "model/reduction.hpp"
#include "sim/integrator.hpp"

int main(int argc, char** argv) {
  using namespace spiv;
  using numeric::Vector;

  model::StateSpace engine = model::make_engine_model();
  std::size_t order = 10;
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

  std::printf("references: LPC-limit r0=%.3f, PR r1=%.3f, Mach r2=%.3f, "
              "N2 r3=%.3f (Theta = %.1f)\n\n",
              r[0], r[1], r[2], r[3], model::kEngineTheta);

  sim::SimOptions options;
  options.t_end = 40.0;
  options.record_interval = 0.5;
  sim::Trajectory traj = sim::simulate(system, r, Vector(system.dim(), 0.0),
                                       options);

  std::printf("%8s %6s %10s %10s %10s %10s\n", "t", "mode", "y0(LPC)",
              "y1(PR)", "y2(Mach)", "y3(N2)");
  for (const auto& pt : traj.points) {
    // Outputs are C x with x the first plant-order components of w.
    Vector x(pt.w.begin(),
             pt.w.begin() + static_cast<std::ptrdiff_t>(plant.num_states()));
    Vector y = plant.c.apply(x);
    std::printf("%8.2f %6zu %10.4f %10.4f %10.4f %10.4f\n", pt.t, pt.mode,
                y[0], y[1], y[2], y[3]);
  }

  std::printf("\nswitching events: %zu\n", traj.switches.size());
  for (const auto& sw : traj.switches)
    std::printf("  t=%.4f: mode %zu -> %zu\n", sw.t, sw.from, sw.to);
  std::printf("final mode: %zu\n", traj.back().mode);
  return 0;
}
