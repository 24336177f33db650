// Google-benchmark micro benchmarks for the substrates: exact arithmetic,
// dense linear algebra (the SDP Newton step's SPD factor and solve among
// them), Lyapunov solvers, LMI iterations and validation engines.  These
// quantify the building blocks behind Tables I/II.  The last two time the
// text paths every warm `verify` request pays: the case file read and the
// certificate key.
#include <benchmark/benchmark.h>

#include <random>
#include <sstream>

#include "exact/lyapunov_exact.hpp"
#include "exact/modular.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/reduction.hpp"
#include "model/serialize.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lyapunov.hpp"
#include "numeric/svd.hpp"
#include "sdp/lyapunov_lmi.hpp"
#include "smt/validate.hpp"
#include "store/cert_key.hpp"

namespace {

using namespace spiv;
using numeric::Matrix;

Matrix random_hurwitz(std::size_t n, unsigned seed) {
  std::mt19937_64 rng{seed};
  std::normal_distribution<double> d;
  Matrix a{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = d(rng);
  const double shift = numeric::spectral_abscissa(a) + 1.0;
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= shift;
  return a;
}

void BM_BigIntMultiply(benchmark::State& state) {
  const auto limbs = static_cast<unsigned>(state.range(0));
  exact::BigInt a{"123456789123456789"};
  exact::BigInt big = a.pow(limbs);
  for (auto _ : state) benchmark::DoNotOptimize(big * big);
}
BENCHMARK(BM_BigIntMultiply)->Arg(4)->Arg(16)->Arg(64);

void BM_BigIntDivExact(benchmark::State& state) {
  // An exact quotient of range(0)-by-range(1) limbs, by Hensel divexact
  // (range(2) == 1) or Knuth's operator/ (0).  31-by-16 is the average
  // size-18 Sylvester/Bareiss step; 64-by-32 a heavier late pivot.
  const auto num_limbs = static_cast<std::size_t>(state.range(0));
  const auto den_limbs = static_cast<std::size_t>(state.range(1));
  std::mt19937_64 rng{42};
  auto random_top_heavy = [&rng](std::size_t limbs) {
    exact::BigInt acc;
    for (std::size_t i = 0; i < limbs; ++i) {
      auto limb = static_cast<std::int64_t>(rng() & 0xffffffffu);
      if (i == 0) limb |= 0x80000000;
      acc = acc.shifted_left(32) + exact::BigInt{limb};
    }
    return acc;
  };
  const exact::BigInt den = random_top_heavy(den_limbs);
  const exact::BigInt num = random_top_heavy(num_limbs - den_limbs) * den;
  const bool hensel = state.range(2) == 1;
  state.SetLabel(hensel ? "divexact" : "operator/");
  for (auto _ : state) {
    if (hensel)
      benchmark::DoNotOptimize(exact::BigInt::divexact(num, den));
    else
      benchmark::DoNotOptimize(num / den);
  }
}
BENCHMARK(BM_BigIntDivExact)
    ->Args({31, 16, 0})
    ->Args({31, 16, 1})
    ->Args({64, 32, 0})
    ->Args({64, 32, 1});

void BM_BigIntGcd(benchmark::State& state) {
  // Operands sharing a large common factor — the shape Rational
  // cross-cancellation feeds the binary gcd on the exact hot path.
  const auto limbs = static_cast<unsigned>(state.range(0));
  const exact::BigInt g = exact::BigInt{"987654321987654321"}.pow(limbs);
  const exact::BigInt a = g * exact::BigInt{"1000000007"};
  const exact::BigInt b = g * exact::BigInt{"998244353"};
  for (auto _ : state) benchmark::DoNotOptimize(exact::BigInt::gcd(a, b));
}
BENCHMARK(BM_BigIntGcd)->Arg(1)->Arg(4)->Arg(16);

void BM_BigIntSmallVecAddMul(benchmark::State& state) {
  // The small-operand fast paths of the pooled-limb BigInt: Arg(1) stays on
  // the u64/__int128 word paths, Arg(4) fills the four inline limbs without
  // touching the heap pool.  This is the shape of CRT delta arithmetic.
  const auto limbs = static_cast<unsigned>(state.range(0));
  const exact::BigInt a = exact::BigInt{"123456789"}.pow(limbs);
  const exact::BigInt b = exact::BigInt{"987654321"}.pow(limbs);
  for (auto _ : state) {
    exact::BigInt s = a * b;
    s += a;
    s -= b;
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_BigIntSmallVecAddMul)->Arg(1)->Arg(4);

void BM_CrtFold(benchmark::State& state) {
  // One product-tree batch fold of range(0) fresh primes into the 171
  // solution entries of the paper's size-15 vech system (m starts at 1:
  // the first, cheapest batch — later batches add the m-delta multiply).
  const std::size_t entries = 171;
  const auto primes_n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> primes(primes_n);
  std::vector<std::vector<std::uint64_t>> res(primes_n);
  std::vector<const std::uint64_t*> ptrs(primes_n);
  for (std::size_t i = 0; i < primes_n; ++i) {
    primes[i] = exact::modular_prime(i);
    res[i].resize(entries);
    for (std::size_t e = 0; e < entries; ++e)
      res[i][e] = (0x9e3779b97f4a7c15ull * (i * entries + e + 1)) % primes[i];
    ptrs[i] = res[i].data();
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<exact::BigInt> xs(entries);
    exact::BigInt m{1};
    state.ResumeTiming();
    exact::detail::crt_fold_batch(xs, m, ptrs, primes, 1);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_CrtFold)->Arg(8)->Arg(32);

void BM_RationalReconstruct(benchmark::State& state) {
  // Euclid pullback of one entry whose CRT image spans range(0) primes —
  // the per-entry cost the output-sensitive cache exists to avoid.
  const auto primes_n = static_cast<std::size_t>(state.range(0));
  const exact::BigInt num{"123456789123456789"};
  const exact::BigInt den{"987654321987"};
  std::vector<std::uint64_t> primes(primes_n);
  std::vector<std::uint64_t> res(primes_n);
  std::vector<const std::uint64_t*> ptrs(primes_n);
  for (std::size_t i = 0; i < primes_n; ++i) {
    primes[i] = exact::modular_prime(i);
    const exact::Montgomery62 mont{primes[i]};
    res[i] = mont.from_mont(
        mont.mul(mont.to_mont(num.mod_u64(primes[i])),
                 mont.inv(mont.to_mont(den.mod_u64(primes[i])))));
    ptrs[i] = &res[i];
  }
  std::vector<exact::BigInt> xs(1);
  exact::BigInt m{1};
  exact::detail::crt_fold_batch(xs, m, ptrs, primes, 1);
  const exact::BigInt bound =
      exact::isqrt((m - exact::BigInt{1}) / exact::BigInt{2});
  for (auto _ : state)
    benchmark::DoNotOptimize(exact::rational_reconstruct(xs[0], m, bound));
}
BENCHMARK(BM_RationalReconstruct)->Arg(8)->Arg(64)->Arg(256);

void BM_MontgomeryMulInv(benchmark::State& state) {
  // The inner product of the per-prime elimination kernel: one Montgomery
  // multiply per matrix entry per pivot, plus the occasional inverse.
  const exact::Montgomery62 mont{exact::modular_prime(0)};
  std::uint64_t x = mont.to_mont(123456789u);
  const std::uint64_t y = mont.to_mont(987654321u);
  for (auto _ : state) {
    x = mont.mul(x, y);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_MontgomeryMulInv);

void BM_ModularVsBareissSolve(benchmark::State& state) {
  // Whole-solver comparison on one vech-sized system (state.range(1) = 1
  // selects the modular backend) — the per-prime kernel overhead shows up
  // as the gap between the two at small sizes.
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 11);
  exact::RatMatrix a_exact =
      exact::rat_matrix_from_doubles(a.data().data(), n, n, 4);
  exact::RatMatrix op = exact::lyapunov_operator_vech(a_exact);
  exact::RatMatrix rhs{op.rows(), 1};
  const auto v = exact::vech(exact::RatMatrix::identity(n) * exact::Rational{-1});
  for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
  const bool modular = state.range(1) == 1;
  for (auto _ : state) {
    if (modular)
      benchmark::DoNotOptimize(exact::solve_rational_modular(op, rhs));
    else
      benchmark::DoNotOptimize(op.solve(rhs));
  }
}
BENCHMARK(BM_ModularVsBareissSolve)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({6, 0})
    ->Args({6, 1});

void BM_RationalMatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  exact::RatMatrix m{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = exact::Rational{static_cast<std::int64_t>(i * 31 + j * 17 + 1),
                                static_cast<std::int64_t>(j + 3)};
  for (auto _ : state) benchmark::DoNotOptimize(m * m);
}
BENCHMARK(BM_RationalMatrixMultiply)->Arg(6)->Arg(13)->Arg(21);

void BM_ComplexSchur(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 1);
  for (auto _ : state) benchmark::DoNotOptimize(numeric::complex_schur(a));
}
BENCHMARK(BM_ComplexSchur)->Arg(6)->Arg(13)->Arg(21);

void BM_BartelsStewart(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 2);
  Matrix q = Matrix::identity(n);
  for (auto _ : state) benchmark::DoNotOptimize(numeric::solve_lyapunov(a, q));
}
BENCHMARK(BM_BartelsStewart)->Arg(6)->Arg(13)->Arg(21);

void BM_JacobiSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 3);
  for (auto _ : state) benchmark::DoNotOptimize(numeric::svd_decompose(a));
}
BENCHMARK(BM_JacobiSvd)->Arg(6)->Arg(13)->Arg(21);

void BM_ExactLyapunovSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 4);
  exact::RatMatrix a_exact =
      exact::rat_matrix_from_doubles(a.data().data(), n, n, 4);
  exact::RatMatrix q = exact::RatMatrix::identity(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(exact::solve_lyapunov_exact(a_exact, q));
}
BENCHMARK(BM_ExactLyapunovSolve)->Arg(4)->Arg(6)->Arg(8);

void BM_LmiNewtonSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 5);
  auto problem = sdp::make_lyapunov_lmi(a, sdp::LyapunovLmiConfig{});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sdp::solve_lmi(problem, sdp::Backend::NewtonAnalyticCenter));
}
BENCHMARK(BM_LmiNewtonSolve)->Arg(6)->Arg(13)->Arg(21);

void BM_SpdFactorSolve(benchmark::State& state) {
  // The SDP Newton step's dense solve, alone: 92/172/232 unknowns are the
  // Newton systems of the size-10/15/18 plants (vech(P) plus the slack).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng{6};
  std::normal_distribution<double> d;
  Matrix b{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = d(rng);
  const Matrix h = (b * b.transposed() + Matrix::identity(n)).symmetrized();
  const numeric::Vector rhs(n, 1.0);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix m = h;
    numeric::Vector x = rhs;
    state.ResumeTiming();
    if (!numeric::cholesky_solve(m, x)) state.SkipWithError("not SPD");
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SpdFactorSolve)
    ->Arg(92)
    ->Arg(172)
    ->Arg(232)
    ->Unit(benchmark::kMicrosecond);

void BM_SylvesterValidation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 6);
  auto p = numeric::solve_lyapunov(a, Matrix::identity(n));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        smt::validate_lyapunov(a, *p, smt::Engine::Sylvester, 10));
}
BENCHMARK(BM_SylvesterValidation)->Arg(6)->Arg(13)->Arg(21);

void BM_BalancedTruncation(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  model::StateSpace engine = model::make_engine_model();
  for (auto _ : state)
    benchmark::DoNotOptimize(model::balanced_truncation(engine, order));
}
BENCHMARK(BM_BalancedTruncation)->Arg(3)->Arg(10)->Arg(15);

void BM_RequestKey(benchmark::State& state) {
  // The closed-loop dimension of the paper's size-3/10/18 plants.
  store::CertRequest req;
  req.a = random_hurwitz(static_cast<std::size_t>(state.range(0)), 7);
  req.method = lyap::Method::EqNum;
  for (auto _ : state) benchmark::DoNotOptimize(store::request_key(req));
}
BENCHMARK(BM_RequestKey)->Arg(6)->Arg(13)->Arg(21);

void BM_ReadCase(benchmark::State& state) {
  // The float family member whose closed loop has dimension range(0): the
  // case file a warm request re-reads.
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::string text;
  for (const auto& bm : model::benchmark_family())
    if (!bm.integer_rounded &&
        bm.plant.num_states() + bm.plant.num_inputs() == dim)
      text = model::case_to_string(bm);
  if (text.empty()) {
    state.SkipWithError("no family member of this closed-loop dimension");
    return;
  }
  for (auto _ : state) {
    std::istringstream in{text};
    benchmark::DoNotOptimize(model::read_case(in));
  }
}
BENCHMARK(BM_ReadCase)->Arg(6)->Arg(13)->Arg(21);

}  // namespace

BENCHMARK_MAIN();
