// spiv::exact — arbitrary-precision signed integer arithmetic.
//
// BigInt is the foundation of the exact (symbolic) layer used for the
// SMT-style validation of Lyapunov candidates.  It is a sign-magnitude
// number with base-2^32 limbs stored little-endian.  All operations are
// exact; overflow cannot occur.  Performance targets are the matrix sizes
// of the paper (up to ~22x22 rational matrices, vech systems of a few
// hundred unknowns); multiplication uses schoolbook with uint64
// accumulation plus Karatsuba above a threshold.
//
// Division comes in two kinds.  A quotient known to be exact (a Bareiss
// step, a gcd or lcm cofactor, a common-denominator scaling) goes through
// divexact / cross_divexact: Jebelean's 2-adic (Hensel) exact division,
// which derives each 64-bit quotient word from the low word times an
// inverse mod 2^64 -- no hardware divide, no normalisation -- and checks
// that the remainder is zero, throwing std::logic_error when it is not.
// General division (/, %, div_mod) is Knuth's algorithm D.
//
// Storage is allocation-light: values below 2^128 live inline in the
// BigInt itself (detail::LimbVec keeps 4 limbs in-place), and larger
// magnitudes draw power-of-two heap blocks from a thread-local pool so the
// CRT folding and integer-verification loops of the multi-modular solver
// recycle their temporaries instead of hammering the allocator.  Values
// that fit two limbs additionally take branch-free int128 fast paths
// through +, -, *, and div_mod.
#pragma once

#include <cstdint>
#include <cstring>
#include <compare>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

namespace spiv::exact {

namespace detail {

/// Small-vector limb storage: kInlineLimbs limbs in-place, larger sizes in
/// pow2-capacity heap blocks recycled through a per-thread free list (see
/// bigint.cpp).  Only the subset of the std::vector interface BigInt needs.
class LimbVec {
 public:
  using value_type = std::uint32_t;
  static constexpr std::size_t kInlineLimbs = 4;

  LimbVec() noexcept : size_(0), cap_(kInlineLimbs) {}
  LimbVec(std::size_t n, value_type fill) : LimbVec() { resize(n, fill); }
  LimbVec(const value_type* first, const value_type* last) : LimbVec() {
    assign(first, last);
  }
  LimbVec(const LimbVec& other) : LimbVec() {
    assign(other.data(), other.data() + other.size_);
  }
  LimbVec(LimbVec&& other) noexcept : size_(other.size_), cap_(other.cap_) {
    if (other.on_heap())
      heap_ = other.heap_;
    else
      std::memcpy(inline_, other.inline_, sizeof inline_);
    other.size_ = 0;
    other.cap_ = kInlineLimbs;
  }
  LimbVec& operator=(const LimbVec& other) {
    if (this != &other) assign(other.data(), other.data() + other.size_);
    return *this;
  }
  LimbVec& operator=(LimbVec&& other) noexcept {
    if (this == &other) return *this;
    release();
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.on_heap())
      heap_ = other.heap_;
    else
      std::memcpy(inline_, other.inline_, sizeof inline_);
    other.size_ = 0;
    other.cap_ = kInlineLimbs;
    return *this;
  }
  ~LimbVec() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool on_heap() const noexcept { return cap_ != kInlineLimbs; }

  [[nodiscard]] value_type* data() noexcept {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] const value_type* data() const noexcept {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] value_type* begin() noexcept { return data(); }
  [[nodiscard]] value_type* end() noexcept { return data() + size_; }
  [[nodiscard]] const value_type* begin() const noexcept { return data(); }
  [[nodiscard]] const value_type* end() const noexcept {
    return data() + size_;
  }

  value_type& operator[](std::size_t i) noexcept { return data()[i]; }
  value_type operator[](std::size_t i) const noexcept { return data()[i]; }
  [[nodiscard]] value_type& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] value_type back() const noexcept { return data()[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  void push_back(value_type v) {
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = v;
  }
  void pop_back() noexcept { --size_; }
  void clear() noexcept { size_ = 0; }
  void resize(std::size_t n, value_type fill = 0) {
    if (n > size_) {
      reserve(n);
      value_type* p = data();
      for (std::size_t i = size_; i < n; ++i) p[i] = fill;
    }
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(std::size_t n, value_type fill) {
    size_ = 0;
    resize(n, fill);
  }
  void assign(const value_type* first, const value_type* last) {
    const std::size_t n = static_cast<std::size_t>(last - first);
    reserve(n);
    std::memmove(data(), first, n * sizeof(value_type));
    size_ = static_cast<std::uint32_t>(n);
  }
  /// Drop the k least-significant limbs (right shift by whole limbs).
  void erase_prefix(std::size_t k) noexcept {
    value_type* p = data();
    std::memmove(p, p + k, (size_ - k) * sizeof(value_type));
    size_ -= static_cast<std::uint32_t>(k);
  }
  void swap(LimbVec& other) noexcept {
    LimbVec tmp = std::move(*this);
    *this = std::move(other);
    other = std::move(tmp);
  }

  friend bool operator==(const LimbVec& a, const LimbVec& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(), a.size_ * sizeof(value_type)) == 0;
  }

 private:
  void grow(std::size_t mincap);  // bigint.cpp (pool-backed)
  void release() noexcept;        // bigint.cpp (returns heap blocks)

  std::uint32_t size_;
  std::uint32_t cap_;  ///< == kInlineLimbs iff the inline buffer is active
  union {
    value_type inline_[kInlineLimbs];
    value_type* heap_;
  };
};

}  // namespace detail

/// Arbitrary-precision signed integer (sign-magnitude, base 2^32).
///
/// Invariants:
///  - limbs_ has no trailing zero limbs (most significant limb nonzero),
///  - zero is represented by an empty limb vector and negative_ == false.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a native signed integer.
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Parse a base-10 string: optional leading '-' or '+', then digits.
  /// Throws std::invalid_argument on malformed input.
  explicit BigInt(std::string_view decimal);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return negative_; }
  [[nodiscard]] bool is_one() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }

  /// Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  /// Sign as -1, 0, +1.
  [[nodiscard]] int sign() const {
    return is_zero() ? 0 : (negative_ ? -1 : 1);
  }

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (C semantics: quotient rounds toward zero).
  /// Throws std::domain_error on division by zero.
  BigInt& operator/=(const BigInt& rhs);
  /// Remainder matching truncated division: sign follows the dividend.
  BigInt& operator%=(const BigInt& rhs);

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator/(BigInt a, const BigInt& b) { return a /= b; }
  friend BigInt operator%(BigInt a, const BigInt& b) { return a %= b; }
  BigInt operator-() const { return negated(); }

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Quotient and remainder in one pass (truncated division).
  [[nodiscard]] static std::pair<BigInt, BigInt> div_mod(const BigInt& num,
                                                         const BigInt& den);

  /// num / den for a division known to be exact (Jebelean, J. Symbolic
  /// Comput. 15, 1993; GMP's mpz_divexact): strip the power of two from
  /// den, then take one 64-bit quotient word (a pair of limbs) per step
  /// from the low word of the running remainder times den's low word
  /// inverted mod 2^64.  The remainder must end exactly zero; otherwise
  /// throws std::logic_error, so a broken exactness invariant can never
  /// become a truncated quotient.  Throws std::domain_error when den == 0.
  [[nodiscard]] static BigInt divexact(BigInt num, const BigInt& den);

  /// The fused Bareiss step (a*b - c*d) / e, exact by construction: both
  /// products accumulate into one reused word buffer, which divexact's
  /// kernel then divides (same throws).  No BigInt temporaries.
  [[nodiscard]] static BigInt cross_divexact(const BigInt& a, const BigInt& b,
                                             const BigInt& c, const BigInt& d,
                                             const BigInt& e);

  /// Greatest common divisor, always non-negative. gcd(0,0) == 0.
  /// Binary (Stein) algorithm: shift/subtract only — no divmod per step —
  /// with a single-word kernel once both operands fit in uint64.  This
  /// sits under every Rational::normalize() on the exact hot path.
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

  /// Canonical residue of the signed value in [0, m); throws
  /// std::domain_error when m == 0.  One u128 division per limb — the
  /// BigInt -> machine-word reduction of the multi-modular solver.
  [[nodiscard]] std::uint64_t mod_u64(std::uint64_t m) const;

  /// this^e for e >= 0 (binary exponentiation).
  [[nodiscard]] BigInt pow(unsigned e) const;

  /// 10^e.
  [[nodiscard]] static BigInt pow10(unsigned e);

  /// Multiply by 2^k (limb/bit shifts).
  [[nodiscard]] BigInt shifted_left(std::size_t bits) const;
  /// Divide by 2^k, truncating toward zero.
  [[nodiscard]] BigInt shifted_right(std::size_t bits) const;

  /// Base-10 representation (with leading '-' when negative).
  [[nodiscard]] std::string to_string() const;

  /// Nearest double (round-to-nearest via long-division scaling);
  /// may overflow to +/-inf for huge values.
  [[nodiscard]] double to_double() const;

  /// Exact conversion when the value fits in int64; throws std::range_error
  /// otherwise.
  [[nodiscard]] std::int64_t to_int64() const;

  /// True when the value fits in int64.
  [[nodiscard]] bool fits_int64() const;

  friend std::ostream& operator<<(std::ostream& os, const BigInt& v);

  /// Total limb count (for diagnostics / complexity experiments).
  [[nodiscard]] std::size_t limb_count() const { return limbs_.size(); }

 private:
  using Limb = std::uint32_t;
  using DoubleLimb = std::uint64_t;
  using Limbs = detail::LimbVec;
  static constexpr unsigned kLimbBits = 32;

  Limbs limbs_;  // little-endian, no trailing zeros
  bool negative_ = false;

  void trim();
  /// Magnitude as u64; only valid when limbs_.size() <= 2.
  [[nodiscard]] std::uint64_t mag_u64() const {
    std::uint64_t m = limbs_.empty() ? 0 : limbs_[0];
    if (limbs_.size() == 2) m |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    return m;
  }
  /// Overwrite with a <= 128-bit magnitude (stays in inline storage).
  void set_mag_u128(unsigned __int128 mag, bool negative);
  /// *this += (rhs_negative ? -|rhs| : |rhs|); shared by += and -=.
  BigInt& add_signed(const BigInt& rhs, bool rhs_negative);
  // |a| vs |b|
  static int compare_magnitude(const Limbs& a, const Limbs& b);
  static Limbs add_magnitude(const Limbs& a, const Limbs& b);
  // requires |a| >= |b|
  static Limbs sub_magnitude(const Limbs& a, const Limbs& b);
  static Limbs mul_magnitude(const Limbs& a, const Limbs& b);
  static Limbs mul_schoolbook(const Limbs& a, const Limbs& b);
  static Limbs mul_karatsuba(const Limbs& a, const Limbs& b);
  // long division of magnitudes; returns {quot, rem}
  static std::pair<Limbs, Limbs> divmod_magnitude(const Limbs& num,
                                                  const Limbs& den);
};

}  // namespace spiv::exact
