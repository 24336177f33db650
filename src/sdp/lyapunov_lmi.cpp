#include "sdp/lyapunov_lmi.hpp"

#include <cstdint>
#include <stdexcept>

namespace spiv::sdp {

using numeric::Matrix;
using numeric::Vector;

namespace {

/// Maps the flat vech index k back to (i, j) with i >= j for an n x n
/// symmetric matrix (column-stacked lower triangle).
std::pair<std::size_t, std::size_t> vech_position(std::size_t k,
                                                  std::size_t n) {
  std::size_t j = 0;
  std::size_t offset = 0;
  while (k >= offset + (n - j)) {
    offset += n - j;
    ++j;
    if (j >= n) throw std::out_of_range("vech_position: index out of range");
  }
  return {j + (k - offset), j};
}

}  // namespace

Matrix vech_basis_matrix(std::size_t k, std::size_t n) {
  auto [i, j] = vech_position(k, n);
  Matrix e{n, n};
  e(i, j) = 1.0;
  e(j, i) = 1.0;  // overwrites harmlessly when i == j
  return e;
}

Matrix unvech_double(const Vector& p, std::size_t n) {
  if (p.size() != n * (n + 1) / 2)
    throw std::invalid_argument("unvech_double: size mismatch");
  Matrix out{n, n};
  for (std::size_t k = 0; k < p.size(); ++k) {
    auto [i, j] = vech_position(k, n);
    out(i, j) = p[k];
    out(j, i) = p[k];
  }
  return out;
}

LmiProblem make_lyapunov_lmi(const Matrix& a, const LyapunovLmiConfig& config) {
  if (!a.is_square())
    throw std::invalid_argument("make_lyapunov_lmi: A must be square");
  const std::size_t n = a.rows();
  if (config.kappa <= config.nu)
    throw std::invalid_argument("make_lyapunov_lmi: need kappa > nu");
  const std::size_t big_k = n * (n + 1) / 2;
  using Term = MatrixPencil::Term;
  auto u32 = [](std::size_t v) { return static_cast<std::uint32_t>(v); };

  // sign * E_k over D = I: one term per vech entry (i, j), i >= j.
  auto box_terms = [&](double sign) {
    std::vector<std::vector<Term>> terms(big_k);
    for (std::size_t k = 0; k < big_k; ++k) {
      auto [i, j] = vech_position(k, n);
      terms[k] = {{u32(i), u32(j), i == j ? 0.5 * sign : sign}};
    }
    return terms;
  };
  // L_k = -(A^T E_k + E_k A) - alpha E_k = -(D E_k + E_k D^T) over
  // D = (A + alpha/2 I)^T, b_i = D e_i: -[sym(e_j, b_i) + sym(e_i, b_j)],
  // or -sym(e_i, b_i) on the diagonal.
  std::vector<std::vector<Term>> lie_terms(big_k);
  for (std::size_t k = 0; k < big_k; ++k) {
    auto [i, j] = vech_position(k, n);
    if (i == j)
      lie_terms[k] = {{u32(i), u32(i), -1.0}};
    else
      lie_terms[k] = {{u32(j), u32(i), -1.0}, {u32(i), u32(j), -1.0}};
  }

  auto diagonal = [n](double v) {
    Matrix f0{n, n};
    for (std::size_t i = 0; i < n; ++i) f0(i, i) = v;
    return f0;
  };

  LmiProblem problem;
  problem.num_vars = big_k;
  // P - nu*I > 0  (plain P > 0 when nu == 0).
  problem.constraints.emplace_back(diagonal(-config.nu), Matrix::identity(n),
                                   box_terms(1.0));
  // kappa*I - P > 0.
  problem.constraints.emplace_back(diagonal(config.kappa), Matrix::identity(n),
                                   box_terms(-1.0));
  // -(A^T P + P A) - alpha P > 0.
  Matrix d = a.transposed();
  for (std::size_t i = 0; i < n; ++i) d(i, i) += 0.5 * config.alpha;
  problem.constraints.emplace_back(Matrix{n, n}, std::move(d),
                                   std::move(lie_terms));
  return problem;
}

}  // namespace spiv::sdp
