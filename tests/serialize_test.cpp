// Round-trip tests for the plain-text model format.
#include "model/serialize.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

namespace spiv::model {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Bit-for-bit equality, so -0.0 and 0.0 differ.
void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "entry " << i;
}

/// A small case whose numbers cover signed zero, non-representable
/// decimals, the exponent switch on both sides, the smallest subnormal and
/// DBL_MAX.
BenchmarkModel golden_case() {
  BenchmarkModel bm;
  bm.name = "golden";
  bm.size = 2;
  bm.integer_rounded = false;
  bm.plant.a = numeric::Matrix{{-0.0, 0.1}, {1e21, -1.0 / 3.0}};
  bm.plant.b = numeric::Matrix{{1e-5},
                               {std::numeric_limits<double>::denorm_min()}};
  bm.plant.c = numeric::Matrix{{DBL_MAX, 3.0}};
  bm.controller.gains.push_back(
      {numeric::Matrix{{0.5}}, numeric::Matrix{{-2.0}}});
  bm.controller.gains.push_back(
      {numeric::Matrix{{1.25}}, numeric::Matrix{{-1e-300}}});
  bm.controller.regions.push_back({OutputGuard{{1.0}, 0.2, {}, true}});
  bm.controller.regions.push_back({OutputGuard{{-1.0}, -0.2, {0.7}, false}});
  bm.references = {123456789012345680.0};
  return bm;
}

constexpr const char* kGoldenCaseText =
    "spiv-case v1\n"
    "name golden size 2 integer 0\n"
    "plant 2 1 1\n"
    "A\n"
    "-0 0.10000000000000001\n"
    "1e+21 -0.33333333333333331\n"
    "B\n"
    "1.0000000000000001e-05\n"
    "4.9406564584124654e-324\n"
    "C\n"
    "1.7976931348623157e+308 3\n"
    "controller 2\n"
    "mode\n"
    "KP\n"
    "0.5\n"
    "KI\n"
    "-2\n"
    "guards 1\n"
    "g 1 h 0.20000000000000001 h_r 0 strict 1\n"
    "mode\n"
    "KP\n"
    "1.25\n"
    "KI\n"
    "-1e-300\n"
    "guards 1\n"
    "g -1 h -0.20000000000000001 h_r 0.69999999999999996 strict 0\n"
    "references 1.2345678901234568e+17\n";

void expect_same_case(const BenchmarkModel& a, const BenchmarkModel& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.integer_rounded, b.integer_rounded);
  expect_same_bits(a.plant.a.data(), b.plant.a.data());
  expect_same_bits(a.plant.b.data(), b.plant.b.data());
  expect_same_bits(a.plant.c.data(), b.plant.c.data());
  ASSERT_EQ(a.controller.num_modes(), b.controller.num_modes());
  for (std::size_t i = 0; i < a.controller.num_modes(); ++i) {
    expect_same_bits(a.controller.gains[i].kp.data(),
                     b.controller.gains[i].kp.data());
    expect_same_bits(a.controller.gains[i].ki.data(),
                     b.controller.gains[i].ki.data());
    ASSERT_EQ(a.controller.regions[i].size(), b.controller.regions[i].size());
    for (std::size_t g = 0; g < a.controller.regions[i].size(); ++g) {
      const OutputGuard& ga = a.controller.regions[i][g];
      const OutputGuard& gb = b.controller.regions[i][g];
      expect_same_bits(ga.g, gb.g);
      EXPECT_EQ(bits(ga.h), bits(gb.h));
      expect_same_bits(ga.h_r, gb.h_r);
      EXPECT_EQ(ga.strict, gb.strict);
    }
  }
  expect_same_bits(a.references, b.references);
}

TEST(Serialize, StateSpaceRoundTrip) {
  StateSpace sys = make_engine_model();
  std::stringstream ss;
  write_state_space(ss, sys);
  StateSpace back = read_state_space(ss);
  EXPECT_EQ(back.a.data(), sys.a.data());  // bit-exact (17 digits)
  EXPECT_EQ(back.b.data(), sys.b.data());
  EXPECT_EQ(back.c.data(), sys.c.data());
}

TEST(Serialize, FullCaseRoundTripEveryFamilyMember) {
  for (const auto& bm : make_benchmark_family()) {
    BenchmarkModel back = case_from_string(case_to_string(bm));
    EXPECT_EQ(back.name, bm.name);
    EXPECT_EQ(back.size, bm.size);
    EXPECT_EQ(back.integer_rounded, bm.integer_rounded);
    EXPECT_EQ(back.plant.a.data(), bm.plant.a.data());
    EXPECT_EQ(back.plant.b.data(), bm.plant.b.data());
    EXPECT_EQ(back.plant.c.data(), bm.plant.c.data());
    ASSERT_EQ(back.controller.num_modes(), bm.controller.num_modes());
    for (std::size_t i = 0; i < bm.controller.num_modes(); ++i) {
      EXPECT_EQ(back.controller.gains[i].kp.data(),
                bm.controller.gains[i].kp.data());
      EXPECT_EQ(back.controller.gains[i].ki.data(),
                bm.controller.gains[i].ki.data());
      ASSERT_EQ(back.controller.regions[i].size(),
                bm.controller.regions[i].size());
      for (std::size_t g = 0; g < bm.controller.regions[i].size(); ++g) {
        EXPECT_EQ(back.controller.regions[i][g].g,
                  bm.controller.regions[i][g].g);
        EXPECT_EQ(back.controller.regions[i][g].h,
                  bm.controller.regions[i][g].h);
        EXPECT_EQ(back.controller.regions[i][g].strict,
                  bm.controller.regions[i][g].strict);
      }
    }
    EXPECT_EQ(back.references, bm.references);
    // The round-tripped case yields an identical closed loop.
    PwaSystem a = close_loop(bm.plant, bm.controller, bm.references);
    PwaSystem b = close_loop(back.plant, back.controller, back.references);
    EXPECT_EQ(a.mode(0).a.data(), b.mode(0).a.data());
    EXPECT_EQ(a.mode(1).b.data(), b.mode(1).b.data());
  }
}

TEST(Serialize, GoldenTextIsStable) {
  // Pinned literal: exported case files must keep their exact bytes.
  EXPECT_EQ(case_to_string(golden_case()), kGoldenCaseText);
  std::ostringstream os;
  write_case(os, golden_case());
  EXPECT_EQ(os.str(), kGoldenCaseText);
  BenchmarkModel expected = golden_case();
  expected.controller.regions[0][0].h_r = {0.0};  // written as zeros
  expect_same_case(case_from_string(kGoldenCaseText), expected);
}

TEST(Serialize, RandomBitPatternsRoundTripBitExactly) {
  // Every finite double, including subnormals and -0.0, survives a write
  // and a read unchanged.
  std::mt19937_64 rng{20230627};
  const std::size_t n = 24;
  for (int round = 0; round < 40; ++round) {
    StateSpace sys;
    sys.a = numeric::Matrix{n, n};
    sys.b = numeric::Matrix{n, 1};
    sys.c = numeric::Matrix{1, n};
    for (numeric::Matrix* m : {&sys.a, &sys.b, &sys.c}) {
      for (std::size_t i = 0; i < m->rows(); ++i) {
        for (std::size_t j = 0; j < m->cols(); ++j) {
          double x = 0.0;
          do {
            std::uint64_t b = rng();
            // Every fourth draw is forced subnormal or zero (exponent 0).
            if (b % 4 == 0) b &= 0x800fffffffffffffull;
            std::memcpy(&x, &b, sizeof x);
          } while (!std::isfinite(x));
          (*m)(i, j) = x;
        }
      }
    }
    sys.a(0, 0) = -0.0;
    sys.a(0, 1) = std::numeric_limits<double>::denorm_min();
    sys.a(0, 2) = -std::numeric_limits<double>::denorm_min();
    sys.a(0, 3) = DBL_MAX;
    sys.a(0, 4) = DBL_MIN;
    std::stringstream ss;
    write_state_space(ss, sys);
    const StateSpace back = read_state_space(ss);
    expect_same_bits(back.a.data(), sys.a.data());
    expect_same_bits(back.b.data(), sys.b.data());
    expect_same_bits(back.c.data(), sys.c.data());
  }
}

TEST(Serialize, CrlfAndTabSeparatedFilesReadLikeSpaceSeparated) {
  const BenchmarkModel expected = case_from_string(kGoldenCaseText);
  std::string crlf, tabs;
  for (const char* c = kGoldenCaseText; *c != '\0'; ++c) {
    crlf += *c == '\n' ? std::string{"\r\n"} : std::string(1, *c);
    tabs += *c == ' ' ? '\t' : *c;
  }
  expect_same_case(case_from_string(crlf), expected);
  expect_same_case(case_from_string(tabs), expected);
  std::istringstream is{"\t" + crlf + "\r\n"};
  expect_same_case(read_case(is), expected);
}

TEST(Serialize, NumbersMustBeWholeTokens) {
  const auto plant_with = [](const std::string& entry) {
    return "plant 1 1 1\nA\n" + entry + "\nB\n1\nC\n1\n";
  };
  // A leading '+' is accepted, as operator>> always did.
  std::istringstream plus{plant_with("+1.5")};
  EXPECT_EQ(read_state_space(plus).a(0, 0), 1.5);
  // Partially numeric tokens are rejected instead of being read half-way.
  for (const std::string bad : {"1.5abc", "0x1p3", "+", "+-1", "1e", "--1"}) {
    std::istringstream is{plant_with(bad)};
    EXPECT_THROW(
        {
          StateSpace sys = read_state_space(is);
          (void)sys;
        },
        std::runtime_error)
        << bad;
  }
  std::istringstream bad_dim{"plant 1x 1 1\nA\n1\nB\n1\nC\n1\n"};
  EXPECT_THROW(read_state_space(bad_dim), std::runtime_error);
}

TEST(Serialize, RejectsMalformedInput) {
  std::istringstream bad1{"not-a-case v1"};
  EXPECT_THROW(read_case(bad1), std::runtime_error);
  std::istringstream bad2{"spiv-case v2 name x size 1 integer 0"};
  EXPECT_THROW(read_case(bad2), std::runtime_error);
  std::istringstream truncated{
      "spiv-case v1\nname t size 2 integer 0\nplant 2 1 1\nA\n1 2\n"};
  EXPECT_THROW(read_case(truncated), std::runtime_error);
  std::istringstream bad_header{"plant 2 x 1\n"};
  EXPECT_THROW(read_state_space(bad_header), std::runtime_error);
}

TEST(Serialize, RejectsNonFiniteNumbers) {
  // operator>> accepts "nan"/"inf" tokens; a poisoned A matrix would make
  // every downstream synthesis/validation silently wrong.
  const auto plant_with = [](const std::string& entry) {
    return "plant 1 1 1\nA\n" + entry + "\nB\n1\nC\n1\n";
  };
  for (const std::string bad : {"nan", "inf", "-inf", "NaN", "Inf"}) {
    std::istringstream is{plant_with(bad)};
    EXPECT_THROW(
        {
          StateSpace sys = read_state_space(is);
          (void)sys;
        },
        std::runtime_error)
        << bad;
  }
  // Control: the same stream with a finite entry parses fine.
  std::istringstream ok{plant_with("-1.5")};
  EXPECT_EQ(read_state_space(ok).a(0, 0), -1.5);

  // Non-finite values are rejected everywhere, not just in matrices: here
  // in the references vector and a guard constant of a full case.
  std::string full =
      "spiv-case v1\nname t size 1 integer 0\n"
      "plant 1 1 1\nA\n-1\nB\n1\nC\n1\n"
      "controller 1\nmode\nKP\n1\nKI\n1\n"
      "guards 1\ng 1 h nan h_r 0 strict 0\n"
      "references 0\n";
  std::istringstream bad_guard{full};
  EXPECT_THROW(read_case(bad_guard), std::runtime_error);
  full.replace(full.find("nan"), 3, "0.5");
  full.replace(full.rfind("references 0"), 12, "references inf");
  std::istringstream bad_ref{full};
  EXPECT_THROW(read_case(bad_ref), std::runtime_error);
}

}  // namespace
}  // namespace spiv::model
