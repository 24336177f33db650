// spiv::numeric::text — locale-free number text for the plain-text formats.
//
// Every text format in the repository (the `spiv-case` model files, the
// `spiv-req` request bytes behind certificate keys, the `spiv-cert` files and
// the protocol's timing fields) writes doubles the way
// `std::ostream << std::setprecision(17)` always has: printf's `%.17g`, 17
// significant digits, round-trip exact.  `std::to_chars` with
// chars_format::general and precision 17 is specified to produce exactly
// that spelling, so switching to it keeps every existing byte, key and
// checksum.
//
// Readers split their input into whitespace-separated tokens and accept a
// number only when the whole token is numeric: "1.5abc", "0x1p3" and a bare
// "+" are rejected where operator>> would have stopped half-way through the
// token.  A single leading '+' is accepted, as operator>> does.  Values out
// of the type's range are rejected.  Neither direction consults the locale.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "numeric/matrix.hpp"

namespace spiv::numeric::text {

/// Append `x` spelled as printf("%.17g", x).
inline void append_double(std::string& out, double x) {
  // "-1.2345678901234567e-308" is the longest %.17g spelling: 24 chars.
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

/// Append `m` one row per line, entries separated by single spaces.
inline void append_matrix(std::string& out, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j != 0) out += ' ';
      append_double(out, m(i, j));
    }
    out += '\n';
  }
}

/// Append `v` as 16 lowercase hex digits, zero padded.
inline void append_hex64(std::string& out, std::uint64_t v) {
  constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i, v >>= 4) buf[i] = kDigits[v & 0xf];
  out.append(buf, sizeof buf);
}

/// Parse all of `token` as an arithmetic value (double or an integer type);
/// nullopt unless every character belongs to the number.  For doubles,
/// "nan"/"inf" parse: callers that need finite values check for them.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token) {
  if (!token.empty() && token.front() == '+') {
    token.remove_prefix(1);
    if (!token.empty() && (token.front() == '-' || token.front() == '+'))
      return std::nullopt;
  }
  T value{};
  const char* const last = token.data() + token.size();
  const auto res = std::from_chars(token.data(), last, value);
  if (res.ec != std::errc{} || res.ptr != last) return std::nullopt;
  return value;
}

/// Whitespace-separated tokens of a text buffer, in order.  Whitespace is
/// what operator>> skips in the classic locale (space, \t, \n, \v, \f, \r),
/// so CRLF and tab-separated files split like space-separated ones.  The
/// returned views point into the buffer, which must outlive the scanner.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_{text} {}

  /// The next token, or nullopt at the end of the buffer.
  [[nodiscard]] std::optional<std::string_view> next() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    if (pos_ == text_.size()) return std::nullopt;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// The next token parsed as a T; nullopt at the end or when the token is
  /// not entirely numeric.
  template <class T>
  [[nodiscard]] std::optional<T> next_number() {
    const auto tok = next();
    return tok ? parse_number<T>(*tok) : std::nullopt;
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace spiv::numeric::text
