// spiv::exact — multi-modular exact linear solve.
//
// The paper's eq-smt method (§VI-B1) solves the Lyapunov equation in exact
// rational arithmetic; fraction-free Bareiss over ever-growing BigInt
// entries is its dominant cost (Table I: 0.56 s at size 5, timeout at 10+).
// This module replaces that with the standard fast path of exact linear
// algebra: solve the (denominator-cleared) integer system modulo many
// ~62-bit primes with machine-word Gaussian elimination, combine the
// residues by CRT, and recover the rational solution by Wang-style rational
// reconstruction.  A Hadamard bound caps the prime budget; trial
// reconstruction at doubling checkpoints exits far earlier on typical
// inputs.  Every returned solution, early or at the full budget, has
// passed an exact A·X = B recheck, which makes the early exit sound.
// Determinants are not computed here: RatMatrix::determinant (Bareiss) is
// the one exact determinant kernel.
//
// Per-prime solves are independent, so they fan out over core::JobPool.
// Residues are CRT-folded in prime-order batches through a balanced
// product tree, parallelised over solution-entry blocks (each entry's CRT
// image is a pure function of the residue sequence, so any SPIV_JOBS gives
// bit-identical results).  Reconstruction is output-sensitive: entries
// whose denominators are small lock in at early checkpoints and are only
// revalidated with one word-mod per new prime afterwards, and a shared
// denominator (every denominator divides det(M) by Cramer) turns most
// per-entry reconstructions into a single mulmod instead of a full
// extended-Euclid pass.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exact/matrix.hpp"
#include "exact/timeout.hpp"

namespace spiv::exact {

/// Which exact linear solver backs solve_lyapunov_exact.  Modular is the
/// one production path (with Bareiss as its fallback); Bareiss alone is
/// the slow deterministic reference the tests and ablations pin.
enum class ExactSolverStrategy {
  Bareiss,  ///< fraction-free Bareiss elimination (the original path)
  Modular,  ///< multi-modular CRT + rational reconstruction
};

/// Per-solve statistics (also mirrored into the obs registry).
struct ModularStats {
  std::uint64_t primes_used = 0;     ///< lucky primes folded into the CRT
  std::uint64_t unlucky_primes = 0;  ///< det == 0 mod p, skipped
  bool early_exit = false;  ///< reconstruction succeeded below the bound
  // Per-phase wall-clock split of this solve (driver-attributed seconds;
  // the elimination phase is the parallel fan-out's wall time, not the
  // summed worker time).  The same split feeds the spiv_modular_elim /
  // crt / reconstruct / verify histograms and ablation_exact_solvers'
  // per-phase column.
  double elim_seconds = 0;
  double crt_seconds = 0;
  double reconstruct_seconds = 0;
  double verify_seconds = 0;
};

struct ModularOptions {
  /// Worker threads for the per-prime fan-out, the entry-block CRT fold,
  /// and the A·X == B recheck: 0 = $SPIV_JOBS (else hardware_concurrency),
  /// 1 = serial on the calling thread.  Results are identical for any
  /// value.
  std::size_t jobs = 0;
  ModularStats* stats = nullptr;  ///< optional out-param
};

/// The i-th prime of the deterministic, descending sequence of ~62-bit
/// primes every multi-modular solve draws from (exposed so tests can build
/// "unlucky prime" instances whose determinant vanishes mod a known prime).
[[nodiscard]] std::uint64_t modular_prime(std::size_t index);

/// Exact solve A X = B for square A by the multi-modular method.  Returns
/// nullopt when A is singular *or* when reconstruction fails — callers fall
/// back to Bareiss, which decides singularity exactly.  A returned matrix
/// is always verified (A·X == B exactly), so it is a proven solution.
/// Throws TimeoutError when `deadline` expires.
[[nodiscard]] std::optional<RatMatrix> solve_rational_modular(
    const RatMatrix& a, const RatMatrix& b, const Deadline& deadline = {},
    const ModularOptions& options = {});

/// Montgomery arithmetic modulo an odd prime p < 2^62.  Values live in
/// Montgomery form (x·2^64 mod p); a multiply is two 64x64->128 products
/// and a conditional subtract — no division anywhere in the elimination
/// kernel.  Exposed for the micro benchmarks and kernel unit tests.
class Montgomery62 {
 public:
  explicit Montgomery62(std::uint64_t p);

  [[nodiscard]] std::uint64_t modulus() const { return p_; }
  /// x < p into Montgomery form.
  [[nodiscard]] std::uint64_t to_mont(std::uint64_t x) const {
    return mul(x, r2_);
  }
  /// Montgomery form back to a plain residue in [0, p).
  [[nodiscard]] std::uint64_t from_mont(std::uint64_t x) const {
    return redc(x);
  }
  [[nodiscard]] std::uint64_t add(std::uint64_t a, std::uint64_t b) const {
    const std::uint64_t s = a + b;  // a, b < p < 2^62: no wrap
    return s >= p_ ? s - p_ : s;
  }
  [[nodiscard]] std::uint64_t sub(std::uint64_t a, std::uint64_t b) const {
    return a >= b ? a - b : a + (p_ - b);
  }
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    return redc(static_cast<unsigned __int128>(a) * b);
  }
  /// Inverse of a nonzero Montgomery-form value (Fermat: a^(p-2)).
  [[nodiscard]] std::uint64_t inv(std::uint64_t a_mont) const;

 private:
  [[nodiscard]] std::uint64_t redc(unsigned __int128 t) const {
    const std::uint64_t m = static_cast<std::uint64_t>(t) * ninv_;
    const unsigned __int128 s = t + static_cast<unsigned __int128>(m) * p_;
    const std::uint64_t r = static_cast<std::uint64_t>(s >> 64);
    return r >= p_ ? r - p_ : r;
  }

  std::uint64_t p_;     ///< modulus
  std::uint64_t ninv_;  ///< -p^{-1} mod 2^64
  std::uint64_t r1_;    ///< 2^64 mod p
  std::uint64_t r2_;    ///< 2^128 mod p
};

/// Wang-style rational reconstruction: the unique n/d with |n|, d <= bound,
/// gcd(n, d) = 1 and n == u·d (mod m), if one exists.  `bound` has no
/// default; the solver passes the balanced floor(sqrt((m-1)/2)), under
/// which any such n/d is unique.
[[nodiscard]] std::optional<Rational> rational_reconstruct(const BigInt& u,
                                                           const BigInt& m,
                                                           const BigInt& bound);

namespace detail {

/// Batched CRT fold (exposed for micro benchmarks and determinism tests).
/// `residues[i][e]` is the plain residue of entry e modulo `primes[i]`
/// (all primes distinct, odd, < 2^62, and coprime to m).  Afterwards every
/// xs[e] is the unique value in [0, m·Πp) congruent to its old self mod m
/// and to residues[i][e] mod primes[i], and m has been multiplied by Πp.
/// The per-prime deltas are combined through a balanced product tree and
/// the per-entry folds fan out over `jobs` workers in entry blocks; the
/// result is a pure function of (xs, m, residues, primes) — bit-identical
/// for any jobs value.
void crt_fold_batch(std::vector<BigInt>& xs, BigInt& m,
                    const std::vector<const std::uint64_t*>& residues,
                    const std::vector<std::uint64_t>& primes,
                    std::size_t jobs);

}  // namespace detail

}  // namespace spiv::exact
