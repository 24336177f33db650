#include "exact/modular.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"
#include "exact/int_system.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace spiv::exact {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulates wall-clock into a phase total even when the guarded section
/// throws (deadline expiry mid-reconstruction must still be attributed).
struct PhaseTimer {
  explicit PhaseTimer(double& acc) : acc_(acc) {}
  ~PhaseTimer() { acc_ += seconds_since(t0_); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_ = Clock::now();
};

/// Hot-path metric handles, resolved once.  Constructed eagerly below so
/// the whole family is present in `spiv-serve metrics` / --metrics-out
/// output even before the first modular solve runs.
struct Metrics {
  obs::Histogram& prime_solve_seconds = obs::Registry::global().histogram(
      "spiv_modular_prime_solve_seconds");
  // Per-solve phase totals (wall clock, driver-attributed).
  obs::Histogram& elim_seconds =
      obs::Registry::global().histogram("spiv_modular_elim_seconds");
  obs::Histogram& crt_seconds =
      obs::Registry::global().histogram("spiv_modular_crt_seconds");
  obs::Histogram& reconstruct_seconds = obs::Registry::global().histogram(
      "spiv_modular_reconstruct_seconds");
  obs::Histogram& verify_seconds =
      obs::Registry::global().histogram("spiv_modular_verify_seconds");
  obs::Counter& primes_used =
      obs::Registry::global().counter("spiv_modular_primes_used_total");
  obs::Counter& unlucky_primes =
      obs::Registry::global().counter("spiv_modular_unlucky_primes_total");
  obs::Counter& early_exits =
      obs::Registry::global().counter("spiv_modular_early_exit_total");
  obs::Counter& solves =
      obs::Registry::global().counter("spiv_modular_solves_total");
  obs::Counter& fallbacks =
      obs::Registry::global().counter("spiv_modular_fallback_total");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

[[maybe_unused]] const bool kMetricsRegistered = (metrics(), true);

// ------------------------------------------------------- prime generation

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod_u64(std::uint64_t base, std::uint64_t e,
                         std::uint64_t m) {
  std::uint64_t r = 1;
  base %= m;
  while (e != 0) {
    if (e & 1u) r = mulmod_u64(r, base, m);
    base = mulmod_u64(base, base, m);
    e >>= 1;
  }
  return r;
}

/// Deterministic Miller–Rabin for 64-bit integers (the 12-base set covers
/// all n < 2^64).  Only used when extending the cached prime sequence.
bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  unsigned r = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = powmod_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (unsigned i = 1; i < r; ++i) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

// ------------------------------------------------------- per-prime kernel

enum class PrimeStatus { Abandoned, Unlucky, Ok };

struct PrimeSolve {
  std::uint64_t prime = 0;
  PrimeStatus status = PrimeStatus::Abandoned;
  /// Plain (non-Montgomery) solution residues, row-major n x k.
  std::vector<std::uint64_t> x;
};

/// Solve the integer system mod `out.prime` with dense Gaussian
/// elimination in Montgomery form.  Never throws: an expired deadline
/// leaves status == Abandoned (the caller re-checks and raises), a zero
/// determinant mod p yields Unlucky.
void solve_one_prime(const detail::IntSystem& sys, std::size_t n,
                     std::size_t k, const Deadline& deadline,
                     PrimeSolve& out) {
  const auto t0 = Clock::now();
  const Montgomery62 mont{out.prime};
  const std::uint64_t p = out.prime;
  const std::size_t w = n + k;
  std::vector<std::uint64_t> t(n * w);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      t[i * w + j] = mont.to_mont(sys.m[i][j].mod_u64(p));
    for (std::size_t c = 0; c < k; ++c)
      t[i * w + n + c] = mont.to_mont(sys.rhs[i][c].mod_u64(p));
  }
  for (std::size_t col = 0; col < n; ++col) {
    if (deadline.expired()) return;  // status stays Abandoned
    std::size_t pivot = n;
    for (std::size_t r = col; r < n; ++r) {
      if (t[r * w + col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot == n) {
      out.status = PrimeStatus::Unlucky;  // det == 0 mod p
      return;
    }
    if (pivot != col)
      std::swap_ranges(t.begin() + static_cast<std::ptrdiff_t>(pivot * w),
                       t.begin() + static_cast<std::ptrdiff_t>((pivot + 1) * w),
                       t.begin() + static_cast<std::ptrdiff_t>(col * w));
    const std::uint64_t inv_pivot = mont.inv(t[col * w + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::uint64_t lead = t[r * w + col];
      if (lead == 0) continue;
      const std::uint64_t f = mont.mul(lead, inv_pivot);
      t[r * w + col] = 0;
      for (std::size_t j = col + 1; j < w; ++j)
        t[r * w + j] = mont.sub(t[r * w + j], mont.mul(f, t[col * w + j]));
    }
  }
  // Back substitution; diagonal inverses are shared across RHS columns.
  std::vector<std::uint64_t> dinv(n);
  for (std::size_t i = 0; i < n; ++i) dinv[i] = mont.inv(t[i * w + i]);
  out.x.assign(n * k, 0);
  std::vector<std::uint64_t> xm(n);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = n; i-- > 0;) {
      std::uint64_t acc = t[i * w + n + c];
      for (std::size_t j = i + 1; j < n; ++j)
        acc = mont.sub(acc, mont.mul(t[i * w + j], xm[j]));
      xm[i] = mont.mul(acc, dinv[i]);
    }
    for (std::size_t i = 0; i < n; ++i)
      out.x[i * k + c] = mont.from_mont(xm[i]);
  }
  out.status = PrimeStatus::Ok;
  metrics().prime_solve_seconds.observe(seconds_since(t0));
}

// --------------------------------------------------------------- CRT fold

/// a^{-1} mod m (extended Euclid), for gcd(a, m) == 1; result in [0, m).
BigInt modinv_big(const BigInt& a, const BigInt& m) {
  BigInt r0 = m;
  BigInt r1 = a % m;
  if (r1.is_negative()) r1 += m;
  BigInt t0{0}, t1{1};
  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::div_mod(r0, r1);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (t0.is_negative()) t0 += m;
  return t0;
}

/// Shared (entry-independent) data for one batched CRT fold: the per-prime
/// delta multipliers and the balanced product tree that combines per-prime
/// deltas into one group value.  Built once per batch on the driver; read
/// concurrently by every entry-block worker.
struct FoldPlan {
  std::vector<std::uint64_t> primes;
  std::vector<std::uint64_t> minv;  ///< (m mod p)^{-1} mod p, plain residue
  struct Pair {
    BigInt m_lo, m_hi;
    BigInt inv_lo;  ///< m_lo^{-1} mod m_hi
  };
  /// levels[l] pairs adjacent subtree moduli; an odd tail passes through.
  std::vector<std::vector<Pair>> levels;
  BigInt group;  ///< product of all folded primes
};

FoldPlan make_fold_plan(const std::vector<std::uint64_t>& primes,
                        const BigInt& m) {
  FoldPlan plan;
  plan.primes = primes;
  plan.minv.reserve(primes.size());
  for (std::uint64_t p : primes) {
    const Montgomery62 mont{p};
    plan.minv.push_back(
        mont.from_mont(mont.inv(mont.to_mont(m.mod_u64(p)))));
  }
  std::vector<BigInt> mods;
  mods.reserve(primes.size());
  for (std::uint64_t p : primes)
    mods.emplace_back(static_cast<std::int64_t>(p));
  while (mods.size() > 1) {
    std::vector<FoldPlan::Pair> level;
    std::vector<BigInt> next;
    level.reserve(mods.size() / 2);
    next.reserve((mods.size() + 1) / 2);
    std::size_t i = 0;
    for (; i + 1 < mods.size(); i += 2) {
      FoldPlan::Pair pair{mods[i], mods[i + 1],
                          modinv_big(mods[i], mods[i + 1])};
      next.push_back(pair.m_lo * pair.m_hi);
      level.push_back(std::move(pair));
    }
    if (i < mods.size()) next.push_back(std::move(mods[i]));
    mods = std::move(next);
    plan.levels.push_back(std::move(level));
  }
  plan.group = mods.empty() ? BigInt{1} : std::move(mods.front());
  return plan;
}

/// Combine the first `count` per-prime deltas in `vals` (vals[i] mod
/// plan.primes[i]) into the unique value mod plan.group, bottom-up through
/// the product tree.  `vals` is caller-owned scratch, overwritten in place.
BigInt combine_fold_tree(const FoldPlan& plan, std::vector<BigInt>& vals,
                         std::size_t count) {
  for (const auto& level : plan.levels) {
    std::size_t out = 0;
    std::size_t i = 0;
    for (const FoldPlan::Pair& pair : level) {
      // v = v_lo + m_lo * (((v_hi - v_lo) mod m_hi) * inv_lo mod m_hi)
      BigInt t = vals[i + 1] - vals[i];
      t %= pair.m_hi;
      if (t.is_negative()) t += pair.m_hi;
      t *= pair.inv_lo;
      t %= pair.m_hi;
      vals[out++] = vals[i] + pair.m_lo * t;
      i += 2;
    }
    if (i < count) vals[out++] = std::move(vals[i]);
    count = out;
  }
  return std::move(vals.front());
}

}  // namespace

namespace detail {

void crt_fold_batch(std::vector<BigInt>& xs, BigInt& m,
                    const std::vector<const std::uint64_t*>& residues,
                    const std::vector<std::uint64_t>& primes,
                    std::size_t jobs) {
  if (primes.empty()) return;
  const FoldPlan plan = make_fold_plan(primes, m);
  const std::size_t np = primes.size();
  core::for_each_block(
      xs.size(), jobs,
      [&](std::size_t b0, std::size_t b1, const CancelToken& /*token*/) {
        std::vector<BigInt> vals(np);
        for (std::size_t e = b0; e < b1; ++e) {
          // Per-prime delta: t_p = (r_p - x_e) * m^{-1} (mod p), so that
          // x_e + m * CRT(t_p...) matches every folded prime and stays
          // congruent to x_e mod m.
          for (std::size_t i = 0; i < np; ++i) {
            const std::uint64_t p = primes[i];
            const std::uint64_t xe = xs[e].mod_u64(p);
            const std::uint64_t r = residues[i][e];
            const std::uint64_t diff = r >= xe ? r - xe : r + (p - xe);
            vals[i] = BigInt{static_cast<std::int64_t>(
                mulmod_u64(diff, plan.minv[i], p))};
          }
          BigInt t = combine_fold_tree(plan, vals, np);
          if (!t.is_zero()) xs[e] += m * t;
        }
      });
  m *= plan.group;
}

}  // namespace detail

// --------------------------------------------------------------- montgomery

Montgomery62::Montgomery62(std::uint64_t p) : p_(p) {
  if (p < 3 || (p & 1u) == 0 || (p >> 62) != 0)
    throw std::invalid_argument("Montgomery62: need an odd modulus < 2^62");
  // Newton–Hensel: x <- x(2 - p x) doubles the number of correct low bits,
  // so six iterations from x = p (3 correct bits for odd p) reach 2^64.
  std::uint64_t inv = p;
  for (int i = 0; i < 6; ++i) inv *= 2 - p * inv;
  ninv_ = ~inv + 1;
  r1_ = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) % p);
  r2_ = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(r1_) * r1_ % p);
}

std::uint64_t Montgomery62::inv(std::uint64_t a_mont) const {
  if (a_mont == 0)
    throw std::domain_error("Montgomery62: inverse of zero");
  // Fermat: a^(p-2) mod p, entirely in Montgomery form.
  std::uint64_t result = r1_;
  std::uint64_t base = a_mont;
  std::uint64_t e = p_ - 2;
  while (e != 0) {
    if (e & 1u) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

// ----------------------------------------------------------------- primes

std::uint64_t modular_prime(std::size_t index) {
  static std::mutex mutex;
  static std::vector<std::uint64_t> primes;
  std::lock_guard<std::mutex> lock(mutex);
  while (primes.size() <= index) {
    std::uint64_t candidate =
        primes.empty() ? (std::uint64_t{1} << 62) - 1 : primes.back() - 2;
    while (!is_prime_u64(candidate)) candidate -= 2;
    primes.push_back(candidate);
  }
  return primes[index];
}

// ---------------------------------------------------------- reconstruction

std::optional<Rational> rational_reconstruct(const BigInt& u, const BigInt& m,
                                             const BigInt& bound) {
  // Half-extended Euclid on (m, u): every intermediate (r_i, t_i) satisfies
  // r_i == t_i * u (mod m); stop at the first remainder <= bound (Wang).
  BigInt r0 = m, r1 = u;
  BigInt t0{0}, t1{1};
  while (r1 > bound) {
    auto [q, r2] = BigInt::div_mod(r0, r1);
    r0 = std::move(r1);
    r1 = std::move(r2);
    BigInt t2 = t0 - q * t1;
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (t1.is_zero()) return std::nullopt;
  BigInt num = std::move(r1);
  BigInt den = std::move(t1);
  if (den.is_negative()) {
    num = num.negated();
    den = den.negated();
  }
  if (den > bound) return std::nullopt;
  if (!BigInt::gcd(num, den).is_one()) return std::nullopt;
  return Rational{std::move(num), std::move(den)};
}

// ------------------------------------------------------------------ solve

namespace {

/// First trial-reconstruction checkpoint, in lucky primes folded; the
/// schedule doubles from there.  Purely a performance constant: any
/// schedule yields the same result.
constexpr std::size_t kFirstCheckpoint = 4;

/// Cached reconstruction candidate for one solution entry.  Entries whose
/// denominators are small reconstruct at early checkpoints; afterwards
/// each new prime only costs the word-mod congruence recheck in
/// revalidate_candidates, never another Euclid pass.
struct EntryCand {
  Rational value;
  bool valid = false;
};

/// Drop every cached candidate that disagrees with a freshly folded prime:
/// a surviving candidate satisfies num == den * x (mod old m) and (mod p)
/// for each new p, hence (mod current m) by CRT — with unchanged Wang
/// bounds and gcd 1 it is *the* unique reconstruction at the current
/// modulus, no Euclid needed.
void revalidate_candidates(std::vector<EntryCand>& cands,
                           const std::vector<BigInt>& xs,
                           const std::vector<std::uint64_t>& fresh_primes) {
  if (fresh_primes.empty()) return;
  for (std::size_t e = 0; e < cands.size(); ++e) {
    EntryCand& c = cands[e];
    if (!c.valid) continue;
    for (std::uint64_t p : fresh_primes) {
      const std::uint64_t num_p = c.value.num().mod_u64(p);
      const std::uint64_t den_p = c.value.den().mod_u64(p);
      const std::uint64_t xe_p = xs[e].mod_u64(p);
      if (num_p != mulmod_u64(den_p, xe_p, p)) {
        c.valid = false;
        break;
      }
    }
  }
}

/// lcm(d, den) with a cheap divisibility pre-check: on the fast path every
/// denominator divides det(M), so after the first entry the remainder test
/// short-circuits the det-sized gcd.
void fold_lcm(BigInt& d, const BigInt& den) {
  if (den.is_one() || den == d) return;
  if (d.is_one()) {
    d = den;
    return;
  }
  if ((d % den).is_zero()) return;
  const BigInt g = BigInt::gcd(d, den);
  d = BigInt::divexact(std::move(d), g) * den;
}

}  // namespace

std::optional<RatMatrix> solve_rational_modular(const RatMatrix& a,
                                                const RatMatrix& b,
                                                const Deadline& deadline,
                                                const ModularOptions& options) {
  if (!a.is_square() || b.rows() != a.rows())
    throw std::invalid_argument("solve_rational_modular: shape mismatch");
  const std::size_t n = a.rows();
  const std::size_t k = b.cols();
  if (n == 0) return RatMatrix{0, k};
  metrics().solves.add();
  deadline.check();
  const detail::IntSystem sys = detail::clear_denominators(a, &b);
  const std::size_t budget_bits = sys.solve_budget_bits;
  const std::size_t jobs = core::resolve_jobs(options.jobs);
  const std::size_t batch = std::max<std::size_t>(jobs, 8);
  std::size_t checkpoint = kFirstCheckpoint;

  const std::size_t entries = n * k;
  std::vector<BigInt> xs(entries);  // CRT images of the solution entries
  BigInt m{1};
  std::size_t prime_index = 0;
  std::uint64_t primes_used = 0;
  std::uint64_t unlucky = 0;
  std::vector<EntryCand> cands(entries);
  std::vector<std::uint64_t> fresh_primes;  // folded since the last attempt
  double elim_s = 0, crt_s = 0, rec_s = 0, ver_s = 0;

  auto finish = [&](bool early, std::optional<RatMatrix> result) {
    metrics().primes_used.add(primes_used);
    metrics().unlucky_primes.add(unlucky);
    if (early && result) metrics().early_exits.add();
    metrics().elim_seconds.observe(elim_s);
    metrics().crt_seconds.observe(crt_s);
    metrics().reconstruct_seconds.observe(rec_s);
    metrics().verify_seconds.observe(ver_s);
    if (options.stats) {
      ModularStats s;
      s.primes_used = primes_used;
      s.unlucky_primes = unlucky;
      s.early_exit = early && result.has_value();
      s.elim_seconds = elim_s;
      s.crt_seconds = crt_s;
      s.reconstruct_seconds = rec_s;
      s.verify_seconds = ver_s;
      *options.stats = s;
    }
    return result;
  };

  // Output-sensitive trial reconstruction.  Revalidates cached candidates
  // against the primes folded since the last attempt (word mods only),
  // then fills the gaps: first via the shared denominator — by Cramer all
  // true denominators divide det(M), so x_e * d_shared mod m lifted to the
  // balanced range usually IS the numerator times a cofactor of d_shared,
  // one mulmod + gcd instead of an extended-Euclid pass — and only falls
  // back to the full Euclid reconstruction when that misses.  With
  // `strict` every cache and shortcut is bypassed (the final full-budget
  // retry, so a pathological shared-denominator interaction can never
  // wedge the solver into the Bareiss fallback).
  auto attempt = [&](bool strict) -> std::optional<RatMatrix> {
    obs::Span span{"modular-reconstruct"};
    PhaseTimer timer{rec_s};
    if (strict)
      for (EntryCand& c : cands) c.valid = false;
    revalidate_candidates(cands, xs, fresh_primes);
    fresh_primes.clear();
    const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
    BigInt d_shared{1};
    RatMatrix x{n, k};
    for (std::size_t e = 0; e < entries; ++e) {
      deadline.check();
      EntryCand& c = cands[e];
      if (!c.valid && !strict && !d_shared.is_one()) {
        BigInt w = xs[e] * d_shared % m;
        if (w + w > m) w -= m;  // balanced lift: w in (-m/2, m/2]
        const BigInt g = BigInt::gcd(w, d_shared);
        BigInt num = BigInt::divexact(std::move(w), g);
        BigInt den = BigInt::divexact(d_shared, g);
        if (num.abs() <= bound && den <= bound) {
          c.value = Rational{std::move(num), std::move(den)};
          c.valid = true;
        }
      }
      if (!c.valid) {
        auto entry = rational_reconstruct(xs[e], m, bound);
        if (!entry) return std::nullopt;  // fold more primes
        c.value = std::move(*entry);
        c.valid = true;
      }
      fold_lcm(d_shared, c.value.den());
      x(e / k, e % k) = c.value;
    }
    return x;
  };

  // Exact A·X == B over the integer system, parallel over row blocks.
  // Scales X by the shared denominator D first (by Cramer every entry's
  // denominator divides det(M), so D stays one det-sized value) — rational
  // accumulation would re-run a multi-thousand-bit gcd per term.
  auto verify_solution = [&](const RatMatrix& x) -> bool {
    obs::Span span{"modular-verify"};
    PhaseTimer timer{ver_s};
    BigInt d{1};
    for (std::size_t e = 0; e < entries; ++e) {
      deadline.check();
      fold_lcm(d, x(e / k, e % k).den());
    }
    std::vector<BigInt> xi(entries);  // X·D, exact integers
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < k; ++c)
        xi[i * k + c] = x(i, c).num() * BigInt::divexact(d, x(i, c).den());
    std::atomic<bool> ok{true};
    std::atomic<bool> abandoned{false};
    core::for_each_block(
        n, jobs,
        [&](std::size_t r0, std::size_t r1, const CancelToken& /*token*/) {
          for (std::size_t i = r0; i < r1; ++i) {
            if (!ok.load(std::memory_order_relaxed)) return;
            if (deadline.expired()) {  // jobs must not throw; driver raises
              abandoned.store(true, std::memory_order_relaxed);
              return;
            }
            for (std::size_t c = 0; c < k; ++c) {
              BigInt acc;
              for (std::size_t j = 0; j < n; ++j) {
                if (sys.m[i][j].is_zero() || xi[j * k + c].is_zero()) continue;
                acc += sys.m[i][j] * xi[j * k + c];
              }
              if (acc != sys.rhs[i][c] * d) {
                ok.store(false, std::memory_order_relaxed);
                return;
              }
            }
          }
        });
    if (abandoned.load()) deadline.check();
    return ok.load();
  };

  while (m.bit_length() < budget_bits) {
    deadline.check();
    // A nonsingular system sheds at most a handful of primes (each unlucky
    // prime divides det); a singular one sheds every prime.  Give up and
    // let the Bareiss fallback decide.
    if (unlucky > primes_used + 16) return finish(false, std::nullopt);
    std::vector<PrimeSolve> results(batch);
    for (std::size_t i = 0; i < batch; ++i)
      results[i].prime = modular_prime(prime_index++);
    {
      obs::Span span{"modular-elim"};
      PhaseTimer timer{elim_s};
      core::for_each_job(batch, jobs,
                         [&](std::size_t i, const CancelToken& /*token*/) {
                           solve_one_prime(sys, n, k, deadline, results[i]);
                         });
    }
    deadline.check();
    // Lucky primes in prime order, truncated where the running modulus
    // meets the budget — the folded sequence (hence every xs[e], hence the
    // result) is independent of jobs and batch size.
    std::vector<std::uint64_t> fold_primes;
    std::vector<const std::uint64_t*> fold_residues;
    BigInt m_run = m;
    for (const PrimeSolve& r : results) {
      if (r.status == PrimeStatus::Unlucky) {
        ++unlucky;
        continue;
      }
      if (r.status != PrimeStatus::Ok) continue;  // abandoned: deadline
      if (m_run.bit_length() >= budget_bits) break;  // budget already met
      fold_primes.push_back(r.prime);
      fold_residues.push_back(r.x.data());
      m_run *= BigInt{static_cast<std::int64_t>(r.prime)};
    }
    {
      obs::Span span{"modular-crt"};
      PhaseTimer timer{crt_s};
      detail::crt_fold_batch(xs, m, fold_residues, fold_primes, jobs);
    }
    primes_used += fold_primes.size();
    fresh_primes.insert(fresh_primes.end(), fold_primes.begin(),
                        fold_primes.end());
    if (entries > 0 && primes_used < checkpoint && !cands[0].valid) {
      // Denominator predictor (ROADMAP): one cheap Euclid pass on the first
      // entry at the current — still small — modulus seeds the
      // shared-denominator fast path, so the next full attempt usually
      // skips its entry-0 reconstruction at a much larger modulus.  A
      // spurious early candidate is harmless: like every cached candidate
      // it must survive the per-prime congruence revalidation and the
      // exact A·X == B verification.
      PhaseTimer timer{rec_s};
      const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
      if (auto entry = rational_reconstruct(xs[0], m, bound)) {
        cands[0].value = std::move(*entry);
        cands[0].valid = true;
      }
    }
    if (primes_used >= checkpoint && m.bit_length() < budget_bits) {
      checkpoint = primes_used * 2;
      if (auto x = attempt(false)) {
        if (verify_solution(*x))
          return finish(true, std::move(x));
        // A spurious candidate survived the congruence checks; none of the
        // caches can be trusted until more primes arrive.
        for (EntryCand& c : cands) c.valid = false;
      }
    }
  }
  // Full Hadamard budget reached: reconstruction now succeeds for every
  // nonsingular system.  If the cached/shared-denominator attempt fails or
  // mis-verifies, retry once strictly (pure per-entry Euclid, no caches);
  // a failure after that means singular (or pathological), which the
  // caller resolves via Bareiss.
  auto x = attempt(false);
  if (x && !verify_solution(*x)) x.reset();
  if (!x) {
    x = attempt(true);
    if (x && !verify_solution(*x)) x.reset();
  }
  return finish(false, std::move(x));
}

}  // namespace spiv::exact
