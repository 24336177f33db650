// Tests for result formatting and CSV generation (core/format).
#include "core/format.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace spiv::core {
namespace {

Table1Result small_table1() {
  Table1Result r;
  r.strategies = {Strategy{lyap::Method::EqSmt, std::nullopt},
                  Strategy{lyap::Method::Lmi,
                           sdp::Backend::NewtonAnalyticCenter}};
  r.cells.resize(2);
  Table1Cell ok;
  ok.cases = 4;
  ok.synthesized = 4;
  ok.valid = 4;
  ok.total_synth_seconds = 2.0;
  Table1Cell to;
  to.cases = 2;
  to.timeouts = 2;
  r.cells[0][3] = ok;
  r.cells[0][15] = to;
  r.cells[1][3] = ok;
  return r;
}

TEST(Format, Table1ShowsTimeoutsAndRatios) {
  const std::string table = format_table1(small_table1());
  EXPECT_NE(table.find("TO"), std::string::npos);
  EXPECT_NE(table.find("4/4"), std::string::npos);
  EXPECT_NE(table.find("0/2"), std::string::npos);
  EXPECT_NE(table.find("0.50"), std::string::npos);  // 2.0 / 4 avg seconds
  // Strategy without a cell at a size prints dashes.
  EXPECT_NE(table.find("-"), std::string::npos);
}

TEST(Format, Table1CsvIsWellFormed) {
  const std::string csv = table1_csv(small_table1());
  // Header + 3 cells.
  int lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 4);
  EXPECT_EQ(csv.find("method,solver,size"), 0u);
  EXPECT_NE(csv.find("eq-smt,,15,TO,0,2,2"), std::string::npos);
}

TEST(Format, AvgSynthSecondsExcludesTimeouts) {
  // total_synth_seconds accumulates only over synthesized cases, so the
  // average divides by `synthesized`, never by `cases`: a cell with 2
  // successes (3 s of solver time) and 2 timeouts averages 1.5 s, not 0.75.
  Table1Cell cell;
  cell.cases = 4;
  cell.synthesized = 2;
  cell.timeouts = 2;
  cell.total_synth_seconds = 3.0;
  EXPECT_DOUBLE_EQ(cell.avg_synth_seconds(), 1.5);
  // An all-timeout cell has no synthesis times at all: 0.0, not a 0/0.
  Table1Cell all_to;
  all_to.cases = 2;
  all_to.timeouts = 2;
  EXPECT_DOUBLE_EQ(all_to.avg_synth_seconds(), 0.0);
}

TEST(Format, Table1DistinguishesTimeoutFromFailure) {
  Table1Result r;
  r.strategies = {Strategy{lyap::Method::EqSmt, std::nullopt}};
  r.cells.resize(1);
  Table1Cell failed;  // solver gave up without timing out
  failed.cases = 2;
  r.cells[0][5] = failed;
  Table1Cell empty;  // zero cases: must not appear in the CSV at all
  r.cells[0][18] = empty;
  const std::string table = format_table1(r);
  EXPECT_EQ(table.find("TO"), std::string::npos);
  const std::string csv = table1_csv(r);
  EXPECT_NE(csv.find("eq-smt,,5,-,0,2,0"), std::string::npos);
  EXPECT_EQ(csv.find(",18,"), std::string::npos);
}

TEST(Format, Figure3CactusCountsMonotone) {
  Figure3Result r;
  r.engines = {{smt::Engine::Sylvester, false}, {smt::Engine::SmtZ3Style, true}};
  // Engine 0: solved at 0.05s and 0.2s; engine 1: one timeout, one 2s.
  r.samples = {{0, 0, smt::Outcome::Valid, 0.05},
               {1, 0, smt::Outcome::Valid, 0.2},
               {0, 1, smt::Outcome::Timeout, 30.0},
               {1, 1, smt::Outcome::Invalid, 2.0}};
  const std::string table = format_figure3(r);
  EXPECT_NE(table.find("sylvester"), std::string::npos);
  EXPECT_NE(table.find("smt-z3+det"), std::string::npos);
  const std::string csv = figure3_csv(r);
  EXPECT_NE(csv.find("timeout"), std::string::npos);
  EXPECT_NE(csv.find("invalid"), std::string::npos);
}

TEST(Format, Table2HighlightsMaxima) {
  Table2Result r;
  Table2Entry a;
  a.model_name = "size15";
  a.size = 15;
  a.mode = 0;
  a.strategy = {lyap::Method::EqNum, std::nullopt};
  a.synthesized = true;
  a.certified = true;
  a.optimal = true;
  a.seconds = 1.5;
  a.volume = 100.0;
  a.epsilon = 1e-5;
  Table2Entry b = a;
  b.strategy = {lyap::Method::Lmi, sdp::Backend::FastInteriorPoint};
  b.volume = 5.0;
  b.epsilon = 3e-4;
  r.entries = {a, b};
  const std::string table = format_table2(r);
  // The volume max (a) and the eps max (b) each get the star.
  EXPECT_NE(table.find("1e+02*"), std::string::npos);
  EXPECT_NE(table.find("3e-04*"), std::string::npos);
  const std::string csv = table2_csv(r);
  EXPECT_NE(csv.find("eq-num"), std::string::npos);
}

TEST(Format, RoundingTotalsAddUp) {
  RoundingResult r;
  r.digit_levels = {10, 6, 4};
  r.counts["eq-num"] = {{4, 0, 0}, {3, 1, 0}, {1, 3, 0}};
  r.counts["LMIa/newton-ac"] = {{4, 0, 0}, {4, 0, 0}, {4, 0, 0}};
  const std::string table = format_rounding(r);
  EXPECT_NE(table.find("4v/0i"), std::string::npos);
  EXPECT_NE(table.find("1v/3i"), std::string::npos);
  // Totals row: invalid sums 0 / 1 / 3.
  EXPECT_NE(table.find("TOTAL invalid"), std::string::npos);
}

TEST(Format, WriteFileRoundTrip) {
  const std::string path = "/tmp/spiv_format_test.txt";
  ASSERT_TRUE(write_file(path, "hello\n"));
  std::ifstream in{path};
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::remove(path.c_str());
  EXPECT_FALSE(write_file("/nonexistent-dir/x/y", "z"));
}

}  // namespace
}  // namespace spiv::core
