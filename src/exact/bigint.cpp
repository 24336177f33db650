#include "exact/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>

namespace spiv::exact {

namespace detail {
namespace {

// Thread-local free list of heap limb blocks.  Every heap capacity LimbVec
// ever uses is a power of two in [2^kMinShift, 2^kMaxShift]; each class
// keeps up to kBinCap retired blocks for reuse.  Blocks outside the binned
// range (or overflowing a bin) go straight to new[]/delete[].
struct Pool {
  static constexpr unsigned kMinShift = 3;   // 8 limbs  (32 bytes)
  static constexpr unsigned kMaxShift = 12;  // 4096 limbs (16 KiB)
  static constexpr std::size_t kBinCap = 8;
  struct Bin {
    std::uint32_t* blocks[kBinCap];
    std::size_t count = 0;
  };
  Bin bins[kMaxShift - kMinShift + 1];
  ~Pool() {
    for (Bin& bin : bins)
      while (bin.count > 0) delete[] bin.blocks[--bin.count];
  }
};

// The pool is reached through a trivially-destructible thread_local slot so
// BigInt temporaries destroyed *after* the pool (static-destruction order,
// late thread-exit destructors) see a null slot and fall back to delete[]
// instead of touching a dead Pool.  `dead` distinguishes "not yet built"
// from "already torn down" so we never reconstruct past thread exit.
struct PoolSlot {
  Pool* pool;
  bool dead;
};
thread_local constinit PoolSlot g_pool_slot{nullptr, false};

struct PoolOwner {
  Pool pool;
  PoolOwner() { g_pool_slot.pool = &pool; }
  ~PoolOwner() { g_pool_slot = {nullptr, true}; }
};

// `cap` must be a power of two.
std::uint32_t* pool_acquire(std::size_t cap) {
  const unsigned shift = static_cast<unsigned>(std::countr_zero(cap));
  if (shift >= Pool::kMinShift && shift <= Pool::kMaxShift) {
    if (g_pool_slot.pool == nullptr && !g_pool_slot.dead) {
      thread_local PoolOwner owner;
      (void)owner;
    }
    if (Pool* p = g_pool_slot.pool) {
      Pool::Bin& bin = p->bins[shift - Pool::kMinShift];
      if (bin.count > 0) return bin.blocks[--bin.count];
    }
  }
  return new std::uint32_t[cap];
}

void pool_release(std::uint32_t* block, std::size_t cap) noexcept {
  const unsigned shift = static_cast<unsigned>(std::countr_zero(cap));
  if (shift >= Pool::kMinShift && shift <= Pool::kMaxShift) {
    if (Pool* p = g_pool_slot.pool) {
      Pool::Bin& bin = p->bins[shift - Pool::kMinShift];
      if (bin.count < Pool::kBinCap) {
        bin.blocks[bin.count++] = block;
        return;
      }
    }
  }
  delete[] block;
}

}  // namespace

void LimbVec::grow(std::size_t mincap) {
  const std::size_t newcap =
      std::bit_ceil(std::max<std::size_t>(mincap, std::size_t{1}
                                                      << Pool::kMinShift));
  value_type* fresh = pool_acquire(newcap);
  std::memcpy(fresh, data(), size_ * sizeof(value_type));
  if (on_heap()) pool_release(heap_, cap_);
  heap_ = fresh;
  cap_ = static_cast<std::uint32_t>(newcap);
}

void LimbVec::release() noexcept {
  if (on_heap()) pool_release(heap_, cap_);
}

}  // namespace detail

namespace {
// Limb count at which mul_magnitude switches from schoolbook to Karatsuba.
// Tuned 2026-08 on an x86-64 core (gcc -O2) by timing balanced random
// products at 16..512 limbs across thresholds {12, 16, 24, 32, 48, 64, 96,
// 128, 192, 256}; total bench seconds were 0.62 / 0.59 / 0.37 / 0.35 /
// 0.25 / 0.24 / 0.19 / 0.186 / 0.19 / 0.19.  The schoolbook inner loop
// (32-bit limbs accumulated in 64-bit) beats this Karatsuba's split/alloc
// overhead until well past 100 limbs: at 128 limbs pure schoolbook runs
// 10.7us vs 12.4us for Karatsuba-with-base-48, and only at 512 limbs does
// recursion still pay (131us with base 128 vs 138us with base 256).  128
// was the sweep minimum; the curve is flat within noise from 96 up.
constexpr std::size_t kKaratsubaThreshold = 128;

// The exact-division kernels (divexact, cross_divexact) run on 64-bit words,
// pairs of 32-bit limbs, with 128-bit products: a quarter of the multiply
// steps of the limb loops.
using Word = std::uint64_t;
using DoubleWord = unsigned __int128;

/// Scratch words: inline up to kInline (every operand of the paper's
/// sizes), heap beyond.  Left uninitialised: every user writes each word
/// before reading it.
class Words {
 public:
  explicit Words(std::size_t n) {
    if (n > kInline) heap_ = std::make_unique<Word[]>(n);
  }
  Word* data() { return heap_ ? heap_.get() : inline_; }

 private:
  static constexpr std::size_t kInline = 64;
  Word inline_[kInline];
  std::unique_ptr<Word[]> heap_;
};

std::size_t word_count(std::size_t limbs) { return (limbs + 1) / 2; }

/// Limbs v[0, n) as word_count(n) little-endian words.
void pack(const detail::LimbVec& v, Word* out) {
  const std::size_t n = v.size();
  for (std::size_t i = 0; i + 1 < n; i += 2)
    out[i / 2] = v[i] | Word{v[i + 1]} << 32;
  if (n % 2) out[n / 2] = v[n - 1];
}

/// Words w[0, n) back into trimmed limbs.
void unpack(const Word* w, std::size_t n, detail::LimbVec& out) {
  out.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out[2 * i] = static_cast<std::uint32_t>(w[i]);
    out[2 * i + 1] = static_cast<std::uint32_t>(w[i] >> 32);
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
}

/// Number of trailing zero bits of a nonzero word magnitude.
std::size_t trailing_zeros(const Word* w) {
  std::size_t i = 0;
  while (w[i] == 0) ++i;
  return i * 64 + static_cast<std::size_t>(std::countr_zero(w[i]));
}

/// w[0, n) >>= bits, with n trimmed to the result.
void shr_words(Word* w, std::size_t& n, std::size_t bits) {
  if (bits == 0) return;
  const std::size_t skip = bits / 64;
  const unsigned shift = bits % 64;
  n -= skip;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = w[i + skip] >> shift;
    if (shift != 0 && i + 1 < n) w[i] |= w[i + skip + 1] << (64 - shift);
  }
  while (n > 0 && w[n - 1] == 0) --n;
}

/// acc[0, w) += x * y[0, ny) (or -= with `subtract`), ny <= w.  The carry
/// or borrow runs up through acc; returns what leaves acc[w - 1] (zero iff
/// the result did not wrap modulo 2^(64w)).
Word addmul_1(Word* acc, std::size_t w, const Word* y, std::size_t ny, Word x,
              bool subtract) {
  Word carry = 0;
  std::size_t j = 0;
  if (subtract) {
    for (; j < ny; ++j) {
      const DoubleWord p = DoubleWord{x} * y[j] + carry;
      const auto lo = static_cast<Word>(p);
      const Word t = acc[j];
      acc[j] = t - lo;
      carry = static_cast<Word>(p >> 64) + (t < lo);
    }
    for (; carry != 0 && j < w; ++j) {
      const Word t = acc[j];
      acc[j] = t - carry;
      carry = t < carry;
    }
  } else {
    for (; j < ny; ++j) {
      const DoubleWord cur = DoubleWord{x} * y[j] + acc[j] + carry;
      acc[j] = static_cast<Word>(cur);
      carry = static_cast<Word>(cur >> 64);
    }
    for (; carry != 0 && j < w; ++j) {
      const Word t = acc[j] + carry;
      carry = t < carry;
      acc[j] = t;
    }
  }
  return carry;
}

/// acc[0, w) +/-= x[0, nx) * y[0, ny) modulo 2^(64w), row by row.
void accumulate_product(Word* acc, std::size_t w, const Word* x,
                        std::size_t nx, const Word* y, std::size_t ny,
                        bool subtract) {
  for (std::size_t i = 0; i < nx; ++i)
    if (x[i] != 0) addmul_1(acc + i, w - i, y, ny, x[i], subtract);
}

[[noreturn]] void throw_inexact() {
  throw std::logic_error("BigInt: divexact of an inexact quotient");
}

/// d^-1 mod 2^64 for odd d: Newton's x <- x(2 - dx) doubles the correct low
/// bits each step, starting from the 3 that d*d == 1 (mod 8) gives.
Word inverse_mod_2_64(Word d) {
  Word x = d;
  for (int i = 0; i < 5; ++i) x *= 2 - d * x;
  return x;
}

/// u[0, nn) / d[0, dn) in place for nonzero trimmed word magnitudes:
/// returns the quotient's word count, the quotient in u[0, count).  Throws
/// std::logic_error unless d divides u.
std::size_t divexact_words(Word* u, std::size_t nn, Word* d, std::size_t dn) {
  // Strip 2^tz from d; u must carry at least as many factors of two.
  const std::size_t tz = trailing_zeros(d);
  if (trailing_zeros(u) < tz) throw_inexact();
  shr_words(u, nn, tz);
  shr_words(d, dn, tz);
  if (nn < dn) throw_inexact();
  if (dn == 1 && d[0] == 1) return nn;
  // Step i zeroes u[i] by subtracting q_i * d * 2^(64i), q_i = u[i] / d[0]
  // mod 2^64, then stores q_i in the freed word.  If d divides u, every
  // partial quotient is at most the true one, so the running remainder never
  // borrows out of the top and ends exactly zero.
  const std::size_t qn = nn - dn + 1;
  const Word inv = inverse_mod_2_64(d[0]);
  for (std::size_t i = 0; i < qn; ++i) {
    const Word q = u[i] * inv;
    if (q == 0) continue;
    if (addmul_1(u + i, nn - i, d, dn, q, true) != 0) throw_inexact();
    u[i] = q;
  }
  for (std::size_t i = qn; i < nn; ++i)
    if (u[i] != 0) throw_inexact();
  return qn;
}

}  // namespace

BigInt::BigInt(std::int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Avoid UB on INT64_MIN: negate in unsigned space.
  std::uint64_t mag =
      negative_ ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  limbs_.push_back(static_cast<Limb>(mag & 0xffffffffu));
  if (mag >> 32) limbs_.push_back(static_cast<Limb>(mag >> 32));
}

BigInt::BigInt(std::string_view decimal) {
  std::size_t i = 0;
  bool neg = false;
  if (i < decimal.size() && (decimal[i] == '-' || decimal[i] == '+')) {
    neg = decimal[i] == '-';
    ++i;
  }
  if (i == decimal.size()) throw std::invalid_argument("BigInt: empty numeral");
  BigInt acc;
  const BigInt ten{10};
  for (; i < decimal.size(); ++i) {
    char c = decimal[i];
    if (c < '0' || c > '9')
      throw std::invalid_argument("BigInt: invalid character in numeral");
    acc *= ten;
    acc += BigInt{c - '0'};
  }
  limbs_ = std::move(acc.limbs_);
  negative_ = neg && !limbs_.empty();
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

void BigInt::set_mag_u128(unsigned __int128 mag, bool negative) {
  limbs_.clear();
  while (mag != 0) {
    limbs_.push_back(static_cast<Limb>(mag & 0xffffffffu));
    mag >>= kLimbBits;
  }
  negative_ = negative && !limbs_.empty();
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * kLimbBits;
  Limb top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

BigInt BigInt::negated() const {
  BigInt r = *this;
  if (!r.limbs_.empty()) r.negative_ = !r.negative_;
  return r;
}

int BigInt::compare_magnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::Limbs BigInt::add_magnitude(const Limbs& a, const Limbs& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  Limbs out;
  out.reserve(longer.size() + 1);
  DoubleLimb carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    DoubleLimb s = carry + longer[i];
    if (i < shorter.size()) s += shorter[i];
    out.push_back(static_cast<Limb>(s & 0xffffffffu));
    carry = s >> 32;
  }
  if (carry) out.push_back(static_cast<Limb>(carry));
  return out;
}

BigInt::Limbs BigInt::sub_magnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) - borrow -
                     (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (d < 0) {
      d += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<Limb>(d));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt::Limbs BigInt::mul_schoolbook(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  // Exact-size construction: a.size()+b.size() limbs always suffices, so
  // this single allocation is the only one the whole routine performs.
  Limbs out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    DoubleLimb carry = 0;
    DoubleLimb ai = a[i];
    if (ai == 0) continue;  // sparse operands (powers of ten, shifts)
    for (std::size_t j = 0; j < b.size(); ++j) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[k]) + carry;
      out[k] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt::Limbs BigInt::mul_karatsuba(const Limbs& a, const Limbs& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold)
    return mul_schoolbook(a, b);
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  auto split = [half](const Limbs& v) -> std::pair<Limbs, Limbs> {
    Limbs lo(v.begin(), v.begin() + std::min(half, v.size()));
    Limbs hi;
    if (v.size() > half) hi.assign(v.begin() + half, v.end());
    while (!lo.empty() && lo.back() == 0) lo.pop_back();
    return {std::move(lo), std::move(hi)};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);
  Limbs z0 = mul_karatsuba(a0, b0);
  Limbs z2 = mul_karatsuba(a1, b1);
  Limbs sa = add_magnitude(a0, a1);
  Limbs sb = add_magnitude(b0, b1);
  Limbs z1 = mul_karatsuba(sa, sb);
  z1 = sub_magnitude(z1, z0);
  z1 = sub_magnitude(z1, z2);
  // result = z0 + z1 << (32*half) + z2 << (64*half)
  Limbs out(std::max({z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1,
            0);
  auto add_at = [&out](const Limbs& v, std::size_t off) {
    DoubleLimb carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[off + i]) + v[i] + carry;
      out[off + i] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    while (carry) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[off + i]) + carry;
      out[off + i] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt::Limbs BigInt::mul_magnitude(const Limbs& a, const Limbs& b) {
  if (a.size() >= kKaratsubaThreshold && b.size() >= kKaratsubaThreshold)
    return mul_karatsuba(a, b);
  return mul_schoolbook(a, b);
}

BigInt& BigInt::add_signed(const BigInt& rhs, bool rhs_negative) {
  if (limbs_.size() <= 2 && rhs.limbs_.size() <= 2) {
    __int128 a = static_cast<__int128>(mag_u64());
    if (negative_) a = -a;
    __int128 b = static_cast<__int128>(rhs.mag_u64());
    if (rhs_negative) b = -b;
    const __int128 s = a + b;
    set_mag_u128(s < 0 ? static_cast<unsigned __int128>(-s)
                       : static_cast<unsigned __int128>(s),
                 s < 0);
    return *this;
  }
  if (negative_ == rhs_negative) {
    limbs_ = add_magnitude(limbs_, rhs.limbs_);
  } else {
    int cmp = compare_magnitude(limbs_, rhs.limbs_);
    if (cmp == 0) {
      limbs_.clear();
      negative_ = false;
    } else if (cmp > 0) {
      limbs_ = sub_magnitude(limbs_, rhs.limbs_);
    } else {
      limbs_ = sub_magnitude(rhs.limbs_, limbs_);
      negative_ = rhs_negative;
    }
  }
  trim();
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  return add_signed(rhs, rhs.negative_);
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  return add_signed(rhs, !rhs.negative_);
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (limbs_.size() <= 2 && rhs.limbs_.size() <= 2) {
    const unsigned __int128 p =
        static_cast<unsigned __int128>(mag_u64()) * rhs.mag_u64();
    set_mag_u128(p, negative_ != rhs.negative_);
    return *this;
  }
  negative_ = negative_ != rhs.negative_;
  limbs_ = mul_magnitude(limbs_, rhs.limbs_);
  trim();
  return *this;
}

std::pair<BigInt::Limbs, BigInt::Limbs> BigInt::divmod_magnitude(
    const Limbs& num, const Limbs& den) {
  if (den.empty()) throw std::domain_error("BigInt: division by zero");
  if (compare_magnitude(num, den) < 0) return {{}, num};
  if (den.size() == 1) {
    // Fast path: single-limb divisor.
    Limbs quot(num.size(), 0);
    DoubleLimb rem = 0;
    DoubleLimb d = den[0];
    for (std::size_t i = num.size(); i-- > 0;) {
      DoubleLimb cur = (rem << 32) | num[i];
      quot[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    while (!quot.empty() && quot.back() == 0) quot.pop_back();
    Limbs r;
    if (rem) r.push_back(static_cast<Limb>(rem));
    return {std::move(quot), std::move(r)};
  }
  // Knuth algorithm D with normalization.
  unsigned shift = 0;
  Limb top = den.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  auto shl = [](const Limbs& v, unsigned s) {
    if (s == 0) return v;
    Limbs out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << s;
      out[i + 1] = v[i] >> (32 - s);
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  Limbs u = shl(num, shift);
  Limbs v = shl(den, shift);
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;
  u.resize(u.size() + 1, 0);  // extra high limb
  Limbs quot(m + 1, 0);
  const DoubleLimb base = DoubleLimb{1} << 32;
  for (std::size_t j = m + 1; j-- > 0;) {
    DoubleLimb numerator = (static_cast<DoubleLimb>(u[j + n]) << 32) | u[j + n - 1];
    DoubleLimb qhat = numerator / v[n - 1];
    DoubleLimb rhat = numerator % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) break;
    }
    // Multiply-subtract qhat*v from u[j..j+n].
    std::int64_t borrow = 0;
    DoubleLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      DoubleLimb p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                       static_cast<std::int64_t>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(base);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<Limb>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<std::int64_t>(base);
      --qhat;
      DoubleLimb c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        DoubleLimb s = static_cast<DoubleLimb>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<Limb>(s & 0xffffffffu);
        c2 = s >> 32;
      }
      t += static_cast<std::int64_t>(c2);
      t &= static_cast<std::int64_t>(base - 1);
    }
    u[j + n] = static_cast<Limb>(t);
    quot[j] = static_cast<Limb>(qhat);
  }
  while (!quot.empty() && quot.back() == 0) quot.pop_back();
  // Remainder = u[0..n) >> shift.
  Limbs rem(u.begin(), u.begin() + n);
  if (shift) {
    for (std::size_t i = 0; i + 1 < rem.size(); ++i)
      rem[i] = (rem[i] >> shift) | (rem[i + 1] << (32 - shift));
    rem.back() >>= shift;
  }
  while (!rem.empty() && rem.back() == 0) rem.pop_back();
  return {std::move(quot), std::move(rem)};
}

std::pair<BigInt, BigInt> BigInt::div_mod(const BigInt& num, const BigInt& den) {
  if (den.limbs_.empty()) throw std::domain_error("BigInt: division by zero");
  if (num.limbs_.size() <= 2 && den.limbs_.size() <= 2) {
    const std::uint64_t n = num.mag_u64();
    const std::uint64_t d = den.mag_u64();
    BigInt q, r;
    q.set_mag_u128(n / d, num.negative_ != den.negative_);
    r.set_mag_u128(n % d, num.negative_);
    return {std::move(q), std::move(r)};
  }
  auto [qm, rm] = divmod_magnitude(num.limbs_, den.limbs_);
  BigInt q, r;
  q.limbs_ = std::move(qm);
  r.limbs_ = std::move(rm);
  q.negative_ = !q.limbs_.empty() && (num.negative_ != den.negative_);
  r.negative_ = !r.limbs_.empty() && num.negative_;
  return {std::move(q), std::move(r)};
}

BigInt BigInt::divexact(BigInt num, const BigInt& den) {
  if (den.limbs_.empty()) throw std::domain_error("BigInt: division by zero");
  const bool negative = num.negative_ != den.negative_;
  if (num.limbs_.size() <= 2 && den.limbs_.size() <= 2) {
    const std::uint64_t n = num.mag_u64();
    const std::uint64_t d = den.mag_u64();
    if (n % d != 0) throw_inexact();
    num.set_mag_u128(n / d, negative);
    return num;
  }
  if (num.limbs_.empty()) return num;
  const std::size_t nn = word_count(num.limbs_.size());
  const std::size_t dn = word_count(den.limbs_.size());
  Words u(nn), d(dn);
  pack(num.limbs_, u.data());
  pack(den.limbs_, d.data());
  unpack(u.data(), divexact_words(u.data(), nn, d.data(), dn), num.limbs_);
  num.negative_ = negative;
  return num;
}

BigInt BigInt::cross_divexact(const BigInt& a, const BigInt& b,
                              const BigInt& c, const BigInt& d,
                              const BigInt& e) {
  if (e.limbs_.empty()) throw std::domain_error("BigInt: division by zero");
  // Past the Karatsuba threshold the row-by-row products would forgo it.
  if (std::min(a.limbs_.size(), b.limbs_.size()) >= kKaratsubaThreshold ||
      std::min(c.limbs_.size(), d.limbs_.size()) >= kKaratsubaThreshold)
    return divexact(a * b - c * d, e);
  // a*b - c*d = s (|a||b| -/+ |c||d|) with s the sign of a*b: the magnitudes
  // subtract when the two products share a sign.  w words hold either
  // product plus a sign bit, so the accumulator is exact in two's
  // complement.
  const bool ab_negative = a.negative_ != b.negative_;
  const bool subtract = ab_negative == (c.negative_ != d.negative_);
  const std::size_t na = word_count(a.limbs_.size());
  const std::size_t nb = word_count(b.limbs_.size());
  const std::size_t nc = word_count(c.limbs_.size());
  const std::size_t nd = word_count(d.limbs_.size());
  Words aw(na), bw(nb), cw(nc), dw(nd);
  pack(a.limbs_, aw.data());
  pack(b.limbs_, bw.data());
  pack(c.limbs_, cw.data());
  pack(d.limbs_, dw.data());
  const std::size_t w = std::max(na + nb, nc + nd) + 1;
  Words acc_words(w);
  Word* acc = acc_words.data();
  std::fill(acc, acc + w, Word{0});
  accumulate_product(acc, w, aw.data(), na, bw.data(), nb, false);
  accumulate_product(acc, w, cw.data(), nc, dw.data(), nd, subtract);
  bool negative = ab_negative;
  if (acc[w - 1] >> 63) {  // negative: take the magnitude
    Word carry = 1;
    for (std::size_t i = 0; i < w; ++i) {
      acc[i] = ~acc[i] + carry;
      carry = carry && acc[i] == 0;
    }
    negative = !negative;
  }
  std::size_t nn = w;
  while (nn > 0 && acc[nn - 1] == 0) --nn;
  if (nn == 0) return {};
  const std::size_t dn = word_count(e.limbs_.size());
  Words ew(dn);
  pack(e.limbs_, ew.data());
  BigInt out;
  unpack(acc, divexact_words(acc, nn, ew.data(), dn), out.limbs_);
  out.negative_ = negative != e.negative_;
  return out;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).first;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).second;
  return *this;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_)
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  int cmp = BigInt::compare_magnitude(a.limbs_, b.limbs_);
  if (a.negative_) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

namespace {

/// Binary gcd on machine words (operands need not be odd).
std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = std::countr_zero(a | b);
  a >>= std::countr_zero(a);
  while (b != 0) {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

}  // namespace

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
    a.set_mag_u128(gcd_u64(a.mag_u64(), b.mag_u64()), false);
    return a;
  }
  auto trailing_zeros = [](const Limbs& v) {
    std::size_t bits = 0;
    std::size_t i = 0;
    while (v[i] == 0) {
      bits += kLimbBits;
      ++i;
    }
    return bits + static_cast<std::size_t>(std::countr_zero(v[i]));
  };
  auto shr_in_place = [](Limbs& v, std::size_t bits) {
    const std::size_t limb_shift = bits / kLimbBits;
    const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
    if (limb_shift) v.erase_prefix(limb_shift);
    if (bit_shift && !v.empty()) {
      for (std::size_t i = 0; i + 1 < v.size(); ++i)
        v[i] = (v[i] >> bit_shift) | (v[i + 1] << (kLimbBits - bit_shift));
      v.back() >>= bit_shift;
    }
    while (!v.empty() && v.back() == 0) v.pop_back();
  };
  auto fits_u64 = [](const Limbs& v) { return v.size() <= 2; };
  auto to_u64 = [](const Limbs& v) {
    std::uint64_t out = v.empty() ? 0 : v[0];
    if (v.size() == 2) out |= static_cast<std::uint64_t>(v[1]) << 32;
    return out;
  };
  // gcd(a, b) = 2^common * gcd(a odd-part, b odd-part) — factor the shared
  // power of two out once, then run odd-only Stein.
  const std::size_t common =
      std::min(trailing_zeros(a.limbs_), trailing_zeros(b.limbs_));
  shr_in_place(a.limbs_, trailing_zeros(a.limbs_));
  shr_in_place(b.limbs_, trailing_zeros(b.limbs_));
  std::uint64_t word_gcd = 0;
  for (;;) {
    if (fits_u64(a.limbs_) && fits_u64(b.limbs_)) {
      word_gcd = gcd_u64(to_u64(a.limbs_), to_u64(b.limbs_));
      break;
    }
    const int cmp = compare_magnitude(a.limbs_, b.limbs_);
    if (cmp == 0) {
      word_gcd = 0;  // answer is a itself
      break;
    }
    if (cmp < 0) a.limbs_.swap(b.limbs_);
    // a, b odd and a > b: a - b is even, so at least one halving follows.
    a.limbs_ = sub_magnitude(a.limbs_, b.limbs_);
    shr_in_place(a.limbs_, trailing_zeros(a.limbs_));
  }
  BigInt g;
  if (word_gcd != 0) {
    g.set_mag_u128(word_gcd, false);
  } else {
    g.limbs_ = std::move(a.limbs_);
  }
  return common ? g.shifted_left(common) : g;
}

std::uint64_t BigInt::mod_u64(std::uint64_t m) const {
  if (m == 0) throw std::domain_error("BigInt: mod_u64 by zero");
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const unsigned __int128 cur =
        (static_cast<unsigned __int128>(rem) << kLimbBits) | limbs_[i];
    rem = static_cast<std::uint64_t>(cur % m);
  }
  if (negative_ && rem != 0) rem = m - rem;
  return rem;
}

BigInt BigInt::pow(unsigned e) const {
  BigInt base = *this;
  BigInt result{1};
  while (e != 0) {
    if (e & 1u) result *= base;
    e >>= 1;
    if (e != 0) base *= base;
  }
  return result;
}

BigInt BigInt::pow10(unsigned e) { return BigInt{10}.pow(e); }

BigInt BigInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  BigInt out;
  out.negative_ = negative_;
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] = limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_right(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) return {};
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.begin() + limb_shift, limbs_.end());
  if (bit_shift) {
    for (std::size_t i = 0; i + 1 < out.limbs_.size(); ++i)
      out.limbs_[i] =
          (out.limbs_[i] >> bit_shift) | (out.limbs_[i + 1] << (kLimbBits - bit_shift));
    out.limbs_.back() >>= bit_shift;
  }
  out.trim();
  return out;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Repeated division by 1e9 (fits in a limb-sized chunk).
  Limbs mag = limbs_;
  std::string digits;
  const DoubleLimb chunk = 1000000000ull;
  while (!mag.empty()) {
    DoubleLimb rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      DoubleLimb cur = (rem << 32) | mag[i];
      mag[i] = static_cast<Limb>(cur / chunk);
      rem = cur % chunk;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::to_double() const {
  if (is_zero()) return 0.0;
  // Use the top 64 bits of the magnitude plus the exponent.
  const std::size_t bits = bit_length();
  double result;
  if (bits <= 64) {
    std::uint64_t mag = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;)
      mag = (mag << 32) | limbs_[i];
    result = static_cast<double>(mag);
  } else {
    BigInt top = shifted_right(bits - 64);
    std::uint64_t mag = 0;
    for (std::size_t i = top.limbs_.size(); i-- > 0;)
      mag = (mag << 32) | top.limbs_[i];
    result = std::ldexp(static_cast<double>(mag),
                        static_cast<int>(bits - 64));
  }
  return negative_ ? -result : result;
}

bool BigInt::fits_int64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  std::uint64_t mag = (static_cast<std::uint64_t>(limbs_[1]) << 32) | limbs_[0];
  if (negative_) return mag <= (std::uint64_t{1} << 63);
  return mag < (std::uint64_t{1} << 63);
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::range_error("BigInt: value does not fit int64");
  if (is_zero()) return 0;
  std::uint64_t mag = limbs_[0];
  if (limbs_.size() == 2) mag |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (negative_) return static_cast<std::int64_t>(~mag + 1);
  return static_cast<std::int64_t>(mag);
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_string();
}

}  // namespace spiv::exact
