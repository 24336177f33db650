// Tests for the locale-free number text shared by the plain-text formats:
// the 17-digit formatter must spell every finite double exactly as
// `std::ostream << std::setprecision(17)` does (existing keys, case files
// and certificates depend on those bytes), and the token parser must accept
// only whole numeric tokens.
#include "numeric/text.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

namespace spiv::numeric::text {
namespace {

std::string stream_spelling(double x) {
  std::ostringstream os;
  os << std::setprecision(17) << x;
  return os.str();
}

std::string helper_spelling(double x) {
  std::string s;
  append_double(s, x);
  return s;
}

TEST(TextFormat, MatchesStreamSpellingOnRandomBitPatterns) {
  std::mt19937_64 rng{0x5eed17};
  std::size_t checked = 0, mismatches = 0;
  while (checked < 200000) {
    std::uint64_t bits = rng();
    // Every eighth draw lands in the subnormal range (exponent bits 0).
    if (bits % 8 == 0) bits &= 0x800fffffffffffffull;
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    if (!std::isfinite(x)) continue;
    ++checked;
    if (helper_spelling(x) != stream_spelling(x)) {
      if (++mismatches <= 5)
        ADD_FAILURE() << "bits " << std::hex << bits << ": helper "
                      << helper_spelling(x) << " stream " << stream_spelling(x);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

TEST(TextFormat, MatchesStreamSpellingOnEdgeValues) {
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e21, 1e-5, 1e-4, 1e16, 1e17,
      123456789012345680.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX, -DBL_MAX,
      DBL_EPSILON, 0.30000000000000004, 1.0 / 3.0, 9.9999999999999995e-8};
  for (double x : edges) EXPECT_EQ(helper_spelling(x), stream_spelling(x));
}

TEST(TextFormat, Hex64IsZeroPaddedLowercase) {
  std::string s;
  append_hex64(s, 0);
  append_hex64(s, 0xdeadBEEFull);
  append_hex64(s, ~0ull);
  EXPECT_EQ(s, "0000000000000000" "00000000deadbeef" "ffffffffffffffff");
}

TEST(TextParse, AcceptsWholeNumericTokensOnly) {
  EXPECT_EQ(parse_number<double>("1.5"), 1.5);
  EXPECT_EQ(parse_number<double>("+1.5"), 1.5);
  EXPECT_EQ(parse_number<double>("-2e-3"), -2e-3);
  EXPECT_EQ(parse_number<double>(".5"), 0.5);
  EXPECT_EQ(parse_number<std::size_t>("+18"), 18u);
  for (const char* bad : {"", "+", "-", "+-1", "++1", "1.5abc", "0x1p3",
                          "1e", " 1", "1 ", "1e400"})
    EXPECT_FALSE(parse_number<double>(bad)) << '"' << bad << '"';
  for (const char* bad : {"-1", "3.5", "1e5", "18446744073709551616", "x"})
    EXPECT_FALSE(parse_number<std::size_t>(bad)) << '"' << bad << '"';
  // Non-finite spellings parse; the format readers reject them.
  EXPECT_TRUE(std::isnan(*parse_number<double>("nan")));
  EXPECT_TRUE(std::isinf(*parse_number<double>("-inf")));
}

TEST(TextParse, RoundTripsEveryFiniteSpellingBitExactly) {
  std::mt19937_64 rng{42};
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits = rng();
    if (i % 4 == 0) bits &= 0x800fffffffffffffull;
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    if (!std::isfinite(x)) continue;
    const auto back = parse_number<double>(helper_spelling(x));
    ASSERT_TRUE(back);
    std::uint64_t back_bits = 0;
    std::memcpy(&back_bits, &*back, sizeof back_bits);
    EXPECT_EQ(back_bits, bits);
  }
}

TEST(TextTokens, SplitsOnEveryClassicLocaleSpace) {
  Tokens in{" a\tb\r\nc\v\fd  \n"};
  std::vector<std::string_view> toks;
  while (const auto t = in.next()) toks.push_back(*t);
  EXPECT_EQ(toks, (std::vector<std::string_view>{"a", "b", "c", "d"}));
  EXPECT_FALSE(in.next());

  Tokens nums{"1 x 2"};
  EXPECT_EQ(nums.next_number<int>(), 1);
  EXPECT_FALSE(nums.next_number<int>());
  EXPECT_EQ(nums.next_number<int>(), 2);
  EXPECT_FALSE(nums.next_number<int>());
}

}  // namespace
}  // namespace spiv::numeric::text
