#include "exact/rational.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace spiv::exact {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
  normalize();
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) {
    den_ = BigInt{1};
    return;
  }
  BigInt g = BigInt::gcd(num_, den_);
  if (!g.is_one()) {
    num_ = BigInt::divexact(std::move(num_), g);
    den_ = BigInt::divexact(std::move(den_), g);
  }
}

Rational::Rational(std::string_view text) : num_(0), den_(1) {
  // Accept forms: [+-]digits, [+-]digits/digits, [+-]digits[.digits][eE[+-]k]
  auto slash = text.find('/');
  if (slash != std::string_view::npos) {
    num_ = BigInt{text.substr(0, slash)};
    den_ = BigInt{text.substr(slash + 1)};
    if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
    normalize();
    return;
  }
  // Decimal / scientific.
  int exp10 = 0;
  auto epos = text.find_first_of("eE");
  std::string_view mant = text;
  if (epos != std::string_view::npos) {
    std::string estr{text.substr(epos + 1)};
    try {
      exp10 = std::stoi(estr);
    } catch (const std::exception&) {
      throw std::invalid_argument("Rational: bad exponent");
    }
    mant = text.substr(0, epos);
  }
  auto dot = mant.find('.');
  std::string digits;
  digits.reserve(mant.size());
  if (dot == std::string_view::npos) {
    digits.assign(mant);
  } else {
    digits.assign(mant.substr(0, dot));
    std::string_view frac = mant.substr(dot + 1);
    digits.append(frac);
    exp10 -= static_cast<int>(frac.size());
  }
  num_ = BigInt{digits};
  den_ = BigInt{1};
  if (exp10 > 0)
    num_ *= BigInt::pow10(static_cast<unsigned>(exp10));
  else if (exp10 < 0)
    den_ = BigInt::pow10(static_cast<unsigned>(-exp10));
  normalize();
}

Rational Rational::from_double_exact(double v) {
  if (!std::isfinite(v))
    throw std::domain_error("Rational: non-finite double");
  if (v == 0.0) return {};
  int exp = 0;
  double mant = std::frexp(v, &exp);  // v = mant * 2^exp, |mant| in [0.5, 1)
  // Scale mantissa to a 53-bit integer.
  auto scaled = static_cast<std::int64_t>(std::ldexp(mant, 53));
  exp -= 53;
  BigInt num{scaled};
  BigInt den{1};
  if (exp >= 0)
    num = num.shifted_left(static_cast<std::size_t>(exp));
  else
    den = den.shifted_left(static_cast<std::size_t>(-exp));
  return Rational{std::move(num), std::move(den)};
}

Rational Rational::from_double_rounded(double v, int digits) {
  if (digits < 1) throw std::invalid_argument("Rational: digits must be >= 1");
  if (!std::isfinite(v))
    throw std::domain_error("Rational: non-finite double");
  if (v == 0.0) return {};
  // printf %.*e rounds to `digits` significant decimal figures; parsing the
  // result back as an exact decimal gives the paper's rounding semantics.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", digits - 1, v);
  return Rational{std::string_view{buf}};
}

Rational Rational::abs() const {
  Rational r = *this;
  r.num_ = r.num_.abs();
  return r;
}

Rational Rational::reciprocal() const {
  if (is_zero()) throw std::domain_error("Rational: reciprocal of zero");
  return Rational{den_, num_};
}

Rational& Rational::operator+=(const Rational& rhs) {
  num_ = num_ * rhs.den_ + rhs.num_ * den_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  num_ = num_ * rhs.den_ - rhs.num_ * den_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  // Cross-cancel before multiplying: with both operands already in lowest
  // terms, gcd(num_, rhs.den_) and gcd(rhs.num_, den_) remove every common
  // factor, so the products below are coprime and no final gcd pass on the
  // (larger) intermediates is needed.  Temporaries keep `r *= r` correct.
  const BigInt g1 = BigInt::gcd(num_, rhs.den_);
  const BigInt g2 = BigInt::gcd(rhs.num_, den_);
  BigInt new_num = (g1.is_one() ? num_ : BigInt::divexact(num_, g1)) *
                   (g2.is_one() ? rhs.num_ : BigInt::divexact(rhs.num_, g2));
  BigInt new_den = (g2.is_one() ? den_ : BigInt::divexact(den_, g2)) *
                   (g1.is_one() ? rhs.den_ : BigInt::divexact(rhs.den_, g1));
  num_ = std::move(new_num);
  den_ = std::move(new_den);
  if (num_.is_zero()) den_ = BigInt{1};
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  if (rhs.is_zero()) throw std::domain_error("Rational: division by zero");
  // a/b / (c/d) = (a d)/(b c); cross-cancel num_ with rhs.num_ and den_
  // with rhs.den_ so the intermediates stay small.
  const BigInt g1 = BigInt::gcd(num_, rhs.num_);
  const BigInt g2 = BigInt::gcd(den_, rhs.den_);
  BigInt new_num = (g1.is_one() ? num_ : BigInt::divexact(num_, g1)) *
                   (g2.is_one() ? rhs.den_ : BigInt::divexact(rhs.den_, g2));
  BigInt new_den = (g2.is_one() ? den_ : BigInt::divexact(den_, g2)) *
                   (g1.is_one() ? rhs.num_ : BigInt::divexact(rhs.num_, g1));
  if (new_den.is_negative()) {
    new_num = new_num.negated();
    new_den = new_den.negated();
  }
  num_ = std::move(new_num);
  den_ = std::move(new_den);
  if (num_.is_zero()) den_ = BigInt{1};
  return *this;
}

Rational Rational::operator-() const {
  Rational r = *this;
  r.num_ = r.num_.negated();
  return r;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  // a.num/a.den vs b.num/b.den with positive denominators.
  return a.num_ * b.den_ <=> b.num_ * a.den_;
}

Rational Rational::pow(int e) const {
  if (e == 0) return Rational{1};
  if (e < 0) return reciprocal().pow(-e);
  return Rational{num_.pow(static_cast<unsigned>(e)),
                  den_.pow(static_cast<unsigned>(e))};
}

double Rational::to_double() const {
  if (num_.is_zero()) return 0.0;
  // Scale so the quotient retains ~64 bits of precision.
  const auto nb = static_cast<std::ptrdiff_t>(num_.bit_length());
  const auto db = static_cast<std::ptrdiff_t>(den_.bit_length());
  const std::ptrdiff_t shift = 64 - (nb - db);
  BigInt scaled_num = shift > 0
                          ? num_.shifted_left(static_cast<std::size_t>(shift))
                          : num_.shifted_right(static_cast<std::size_t>(-shift));
  BigInt q = scaled_num / den_;
  return std::ldexp(q.to_double(), static_cast<int>(-shift));
}

std::string Rational::to_string() const {
  if (den_.is_one()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

std::ostream& operator<<(std::ostream& os, const Rational& v) {
  return os << v.to_string();
}

BigInt isqrt(const BigInt& v) {
  if (v.is_negative()) throw std::domain_error("isqrt: negative argument");
  if (v.is_zero()) return {};
  // Newton iteration starting from a power-of-two overestimate.
  const std::size_t bits = v.bit_length();
  BigInt x = BigInt{1}.shifted_left(bits / 2 + 1);
  while (true) {
    BigInt y = (x + v / x).shifted_right(1);
    if (y >= x) break;
    x = std::move(y);
  }
  return x;
}

}  // namespace spiv::exact
