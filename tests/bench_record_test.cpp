// Tests for the bench-record writer (bench/bench_common.hpp) that every
// BENCH_*.json file goes through.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>

namespace spiv::bench {
namespace {

/// The record's text from "jobs" on: everything but the machine fields.
std::string record_tail(std::string_view experiment, std::size_t jobs,
                        double wall_seconds, const Fields& summary,
                        const std::vector<Fields>& cells) {
  const std::string path = ::testing::TempDir() + "bench_record_test.json";
  EXPECT_TRUE(
      write_record(path, experiment, jobs, wall_seconds, summary, cells));
  std::ifstream in{path};
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  std::remove(path.c_str());
  const std::string head = "{\n  \"experiment\": " + Value{experiment}.json +
                           ",\n  \"hostname\": ";
  EXPECT_EQ(text.rfind(head, 0), 0u) << text;
  EXPECT_NE(text.find(",\n  \"hardware_concurrency\": "), std::string::npos);
  EXPECT_NE(text.find(",\n  \"git_commit\": \""), std::string::npos);
  return text.substr(text.find("  \"jobs\": "));
}

TEST(BenchRecord, Table1RecordWellFormed) {
  core::Table1Result r;
  r.strategies = {core::Strategy{lyap::Method::EqSmt, std::nullopt},
                  core::Strategy{lyap::Method::Lmi,
                                 sdp::Backend::NewtonAnalyticCenter}};
  r.cells.resize(2);
  core::Table1Cell ok;
  ok.cases = ok.synthesized = ok.valid = 4;
  ok.total_synth_seconds = 2.0;
  core::Table1Cell to;
  to.cases = to.timeouts = 2;
  r.cells[0][3] = ok;
  r.cells[0][15] = to;
  r.cells[0][18] = core::Table1Cell{};  // no cases: not a cell of the record
  r.cells[1][3] = ok;
  EXPECT_EQ(record_tail("table1", 4, 12.5, {}, table1_cells(r)),
            R"(  "jobs": 4,
  "wall_seconds": 12.5,
  "cells": [
    {"method": "eq-smt", "solver": "", "size": 3, "total_synth_seconds": 2, "avg_synth_seconds": 0.5, "synthesized": 4, "valid": 4, "timeouts": 0, "cases": 4},
    {"method": "eq-smt", "solver": "", "size": 15, "total_synth_seconds": 0, "avg_synth_seconds": 0, "synthesized": 0, "valid": 0, "timeouts": 2, "cases": 2},
    {"method": "LMI", "solver": "newton-ac", "size": 3, "total_synth_seconds": 2, "avg_synth_seconds": 0.5, "synthesized": 4, "valid": 4, "timeouts": 0, "cases": 4}
  ]
}
)");
}

TEST(BenchRecord, EmptyCellsWellFormed) {
  EXPECT_EQ(record_tail("table1-cold-warm", 2, 3.0,
                        {{"hits", std::uint64_t{5}}, {"identical", true}}, {}),
            "  \"jobs\": 2,\n  \"wall_seconds\": 3,\n  \"hits\": 5,\n"
            "  \"identical\": true,\n  \"cells\": []\n}\n");
  EXPECT_FALSE(write_record("/nonexistent-dir/x/BENCH_x.json", "x", 1, 0.0,
                            {}, {}));
}

TEST(BenchRecord, StringsAreEscaped) {
  EXPECT_EQ(Value{std::string{"a\"b\\c\x01" "d\n"}}.json,
            R"("a\"b\\c\u0001d\u000a")");
  EXPECT_EQ(Value{"plain-host.example"}.json, R"("plain-host.example")");
}

TEST(BenchRecord, NonFiniteDoublesAreNull) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {inf, -inf, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_EQ(Value{x}.json, "null");
  EXPECT_EQ(record_tail("x", 1, -inf, {}, {{{"nan", std::nan("")}}}),
            "  \"jobs\": 1,\n  \"wall_seconds\": null,\n  \"cells\": [\n"
            "    {\"nan\": null}\n  ]\n}\n");
}

TEST(BenchRecord, DoublesRoundTripBitExact) {
  for (const double x : {0.1 + 0.2, 1.0 / 3.0, -2.5e-300, 6.02214076e23,
                         std::numeric_limits<double>::denorm_min()}) {
    const std::string text = Value{x}.json;
    double parsed = 0.0;
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    ASSERT_EQ(res.ec, std::errc{}) << text;
    EXPECT_EQ(res.ptr, text.data() + text.size()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(x))
        << text;
  }
  // The -1 timeout sentinel of the harnesses keeps its spelling.
  EXPECT_EQ(Value{-1.0}.json, "-1");
}

}  // namespace
}  // namespace spiv::bench
