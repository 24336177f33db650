#include "lyapunov/synthesis.hpp"
#include "sdp/lyapunov_lmi.hpp"
#include "workloads.hpp"

namespace spivbench {

SynthReplay replay_synthesis(const spiv::numeric::Matrix& a,
                             spiv::lyap::Method method,
                             const spiv::lyap::SynthesisOptions& options,
                             Tracer* tr, std::uint64_t parent,
                             std::uint64_t req) {
  using namespace spiv;
  SynthReplay out;
  if (!lyap::is_lmi_method(method)) {
    out.candidate = lyap::synthesize(a, method, options);
    return out;
  }
  sdp::LyapunovLmiConfig config;
  config.kappa = options.kappa;
  if (method != lyap::Method::Lmi) config.alpha = options.alpha;
  if (method == lyap::Method::LmiAlphaPlus) config.nu = options.nu;
  sdp::LmiProblem problem;
  {
    Span s{tr, "sdp.make", parent, req};
    problem = sdp::make_lyapunov_lmi(a, config);
  }
  sdp::LmiSolution sol;
  {
    Span s{tr, "sdp.solve", parent, req, sdp::to_string(options.backend)};
    sol = sdp::solve_lmi(problem, options.backend);
  }
  out.iterations = sol.iterations;
  if (!sol.feasible) return out;
  lyap::Candidate& c = out.candidate.emplace();
  c.method = method;
  c.p = sdp::unvech_double(sol.p, a.rows());
  return out;
}

}  // namespace spivbench
