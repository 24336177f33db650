// spiv-verify: end-to-end verification of a serialized benchmark case.
//
//   ./build/examples/verify_case <case.spivcase> [--method NAME]
//                                [--digits N] [--timeout SECONDS]
//
// Loads a plant + switched-PI-controller case (see export_benchmarks),
// closes the loop, and for every operating mode:
//   1. synthesizes a candidate Lyapunov function (default: LMIa),
//   2. validates both Lyapunov conditions exactly,
//   3. synthesizes + certifies the robust region and both robustness radii.
// Exit code 0 iff every mode is proved stable with a certified region.
//
// --timeout is a SHARED per-mode budget (verify::SharedBudget): synthesis,
// validation, and the region computation all draw from the same deadline,
// so one mode can never burn more than its declared budget.  (An earlier
// version minted a fresh full-timeout deadline per stage, letting one mode
// spend 3x the declared budget.)
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "core/env.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/serialize.hpp"
#include "numeric/eigen.hpp"
#include "robust/region.hpp"
#include "verify/verify.hpp"

namespace {

using namespace spiv;

std::optional<lyap::Method> parse_method(const std::string& name) {
  for (lyap::Method m :
       {lyap::Method::EqSmt, lyap::Method::EqNum, lyap::Method::Modal,
        lyap::Method::Lmi, lyap::Method::LmiAlpha, lyap::Method::LmiAlphaPlus})
    if (lyap::to_string(m) == name) return m;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <case.spivcase> [--method eq-smt|eq-num|modal|"
                 "LMI|LMIa|LMIa+] [--digits N] [--timeout SECONDS]\n",
                 argv[0]);
    return 2;
  }
  lyap::Method method = lyap::Method::LmiAlpha;
  int digits = 10;
  double timeout = 120.0;
  const auto invalid = [](const char* flag, const char* value) {
    std::fprintf(stderr, "invalid %s '%s'\n", flag, value);
    return 2;
  };
  for (int i = 2; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--method")) {
      auto m = parse_method(argv[i + 1]);
      if (!m) {
        std::fprintf(stderr, "unknown method '%s'\n", argv[i + 1]);
        return 2;
      }
      method = *m;
    } else if (!std::strcmp(argv[i], "--digits")) {
      const std::optional<std::size_t> d =
          core::env::parse_positive(argv[i + 1]);
      if (!d || *d > static_cast<std::size_t>(INT_MAX))
        return invalid(argv[i], argv[i + 1]);
      digits = static_cast<int>(*d);
    } else if (!std::strcmp(argv[i], "--timeout")) {
      const std::optional<double> t = core::env::parse_seconds(argv[i + 1]);
      if (!t || *t == 0.0) return invalid(argv[i], argv[i + 1]);
      timeout = *t;
    }
  }

  std::ifstream in{argv[1]};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  model::BenchmarkModel bm;
  try {
    bm = model::read_case(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 2;
  }
  std::printf("case %s: plant %zu/%zu/%zu, %zu modes, method %s\n",
              bm.name.c_str(), bm.plant.num_states(), bm.plant.num_inputs(),
              bm.plant.num_outputs(), bm.controller.num_modes(),
              lyap::to_string(method).c_str());

  model::PwaSystem sys =
      model::close_loop(bm.plant, bm.controller, bm.references);
  bool all_ok = true;
  for (std::size_t mode = 0; mode < sys.num_modes(); ++mode) {
    std::printf("mode %zu: abscissa %+.4f  ", mode,
                numeric::spectral_abscissa(sys.mode(mode).a));
    verify::VerifyContext ctx = verify::VerifyContext::from_env();
    verify::VerifyRequest vreq;
    vreq.a = sys.mode(mode).a;
    vreq.method = method;
    vreq.digits = digits;
    vreq.budget = verify::SharedBudget{timeout};
    const verify::VerifyOutcome res = verify::run_verify(ctx, vreq);
    if (res.status == verify::Status::Timeout) {
      std::printf("%s TIMEOUT\n",
                  res.timeout_stage == verify::Stage::Synthesis
                      ? "synthesis"
                      : "exact validation");
      all_ok = false;
      continue;
    }
    if (res.status == verify::Status::SynthFailed ||
        res.status == verify::Status::Error) {
      std::printf("synthesis FAILED%s%s\n", res.message.empty() ? "" : ": ",
                  res.message.c_str());
      all_ok = false;
      continue;
    }
    if (res.status != verify::Status::Valid) {
      std::printf("exact validation FAILED\n");
      all_ok = false;
      continue;
    }
    const lyap::Candidate& cand = *res.candidate_ptr();
    std::printf("stable (exact proof, %.2fs+%.2fs)  ", res.synth_seconds,
                res.validate_seconds);
    try {
      robust::RegionOptions ropt;
      ropt.digits = digits;
      // Chain the region work on the pipeline's remaining budget.
      ropt.deadline = res.deadline;
      robust::RobustRegion region =
          robust::synthesize_region(sys, mode, cand.p, bm.references, ropt);
      const double eps = robust::reference_robustness_epsilon(
          sys, mode, cand.p, bm.references, region);
      const double alpha = robust::state_robustness_radius(
          sys, mode, cand.p, bm.references, region);
      std::printf("region k=%.4g cert=%s vol=%.3g alpha=%.3g eps=%.3g\n",
                  region.k, region.certified ? "yes" : "NO", region.volume,
                  alpha, eps);
      all_ok &= region.certified;
    } catch (const std::exception& e) {
      std::printf("region synthesis failed: %s\n", e.what());
      all_ok = false;
    }
  }
  std::printf("%s\n", all_ok ? "VERIFIED" : "NOT VERIFIED");
  return all_ok ? 0 : 1;
}
