#include "lyapunov/synthesis.hpp"

#include <chrono>
#include <stdexcept>

#include "exact/lyapunov_exact.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lyapunov.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sdp/lyapunov_lmi.hpp"

namespace spiv::lyap {

using numeric::Matrix;

std::string to_string(Method m) {
  switch (m) {
    case Method::EqSmt: return "eq-smt";
    case Method::EqNum: return "eq-num";
    case Method::Modal: return "modal";
    case Method::Lmi: return "LMI";
    case Method::LmiAlpha: return "LMIa";
    case Method::LmiAlphaPlus: return "LMIa+";
  }
  return "?";
}

std::optional<Method> method_from_string(const std::string& name) {
  for (Method m : {Method::EqSmt, Method::EqNum, Method::Modal, Method::Lmi,
                   Method::LmiAlpha, Method::LmiAlphaPlus})
    if (to_string(m) == name) return m;
  return std::nullopt;
}

bool is_lmi_method(Method m) {
  return m == Method::Lmi || m == Method::LmiAlpha ||
         m == Method::LmiAlphaPlus;
}

namespace {

std::optional<Candidate> synthesize_eq_smt(const Matrix& a,
                                           const SynthesisOptions& options) {
  const exact::RatMatrix a_exact = exact::rat_matrix_from_doubles(
      a.data().data(), a.rows(), a.cols(), /*digits=*/0);
  auto p_exact = exact::solve_lyapunov_exact(
      a_exact, exact::RatMatrix::identity(a.rows()), options.deadline);
  if (!p_exact) return std::nullopt;
  Candidate c;
  c.method = Method::EqSmt;
  c.p = Matrix{a.rows(), a.cols()};
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      c.p(i, j) = (*p_exact)(i, j).to_double();
  c.exact_p = std::move(*p_exact);
  return c;
}

std::optional<Candidate> synthesize_eq_num(const Matrix& a) {
  auto p = numeric::solve_lyapunov(a, Matrix::identity(a.rows()));
  if (!p) return std::nullopt;
  Candidate c;
  c.method = Method::EqNum;
  c.p = std::move(*p);
  return c;
}

std::optional<Candidate> synthesize_modal(const Matrix& a) {
  auto eig = numeric::eigen_decompose(a);
  if (!eig.converged) return std::nullopt;
  auto m_inv = eig.modal.inverse();
  if (!m_inv) return std::nullopt;  // defective (numerically)
  // P = (M^-1)^H (M^-1); real symmetric for real A (paper eq. (8)).
  numeric::CMatrix p = m_inv->adjoint() * *m_inv;
  Candidate c;
  c.method = Method::Modal;
  c.p = p.real_part().symmetrized();
  return c;
}

std::optional<Candidate> synthesize_lmi(const Matrix& a, Method method,
                                        const SynthesisOptions& options) {
  sdp::LyapunovLmiConfig config;
  config.kappa = options.kappa;
  if (method == Method::LmiAlpha || method == Method::LmiAlphaPlus)
    config.alpha = options.alpha;
  if (method == Method::LmiAlphaPlus) config.nu = options.nu;
  sdp::LmiProblem problem = sdp::make_lyapunov_lmi(a, config);
  sdp::LmiOptions lmi_options;
  lmi_options.deadline = options.deadline;
  auto sol = sdp::solve_lmi(problem, options.backend, lmi_options);
  if (!sol.feasible) return std::nullopt;
  Candidate c;
  c.method = method;
  c.p = sdp::unvech_double(sol.p, a.rows());
  return c;
}

}  // namespace

std::optional<Candidate> synthesize(const Matrix& a, Method method,
                                    const SynthesisOptions& options) {
  if (!a.is_square() || a.rows() == 0)
    throw std::invalid_argument("synthesize: A must be square and non-empty");
  // Stage span (records even when the method throws TimeoutError) plus a
  // per-method latency histogram for the successful syntheses.
  obs::Span span{"synthesis", to_string(method)};
  obs::Histogram& method_seconds = obs::Registry::global().histogram(
      "spiv_synthesis_seconds{method=\"" + to_string(method) + "\"}");
  const auto start = std::chrono::steady_clock::now();
  std::optional<Candidate> c;
  switch (method) {
    case Method::EqSmt: c = synthesize_eq_smt(a, options); break;
    case Method::EqNum: c = synthesize_eq_num(a); break;
    case Method::Modal: c = synthesize_modal(a); break;
    case Method::Lmi:
    case Method::LmiAlpha:
    case Method::LmiAlphaPlus:
      c = synthesize_lmi(a, method, options);
      break;
  }
  if (c) {
    c->synth_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    method_seconds.observe(c->synth_seconds);
  }
  return c;
}

}  // namespace spiv::lyap
