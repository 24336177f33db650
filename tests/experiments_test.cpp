// Integration tests for the experiment drivers (small configurations).
#include "core/experiments.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/format.hpp"
#include "store/cert_store.hpp"

namespace spiv::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.sizes = {3};
  config.synth_timeout_seconds = 20.0;
  config.validate_timeout_seconds = 20.0;
  return config;
}

TEST(Experiments, StrategiesMatchPaperRows) {
  auto strategies = paper_strategies();
  ASSERT_EQ(strategies.size(), 12u);
  EXPECT_EQ(strategies[0].name(), "eq-smt");
  EXPECT_EQ(strategies[1].name(), "eq-num");
  EXPECT_EQ(strategies[2].name(), "modal");
  EXPECT_EQ(strategies[3].name(), "LMI/newton-ac");
  EXPECT_EQ(strategies[11].name(), "LMIa+/short-ipm");
}

TEST(Experiments, Table1OnSize3) {
  Table1Result result = run_table1(small_config());
  ASSERT_EQ(result.cells.size(), 12u);
  // size-3 group: 2 model variants (float + integer) x 2 modes = 4 cases.
  for (std::size_t s = 0; s < result.cells.size(); ++s) {
    auto it = result.cells[s].find(3);
    ASSERT_NE(it, result.cells[s].end()) << result.strategies[s].name();
    EXPECT_EQ(it->second.cases, 4) << result.strategies[s].name();
    // Everything should be synthesized and validated at this size.
    EXPECT_EQ(it->second.valid, 4) << result.strategies[s].name();
  }
  EXPECT_EQ(result.candidates.size(), 12u * 4u);
  // Formatting round-trips without crashing and mentions the size.
  const std::string table = format_table1(result);
  EXPECT_NE(table.find("size 3"), std::string::npos);
  EXPECT_NE(table.find("eq-smt"), std::string::npos);
  const std::string csv = table1_csv(result);
  EXPECT_NE(csv.find("modal"), std::string::npos);
}

// A rerun against the store a first run filled replays every cell: the
// printed table and the CSV (timing column included, since warm cells
// replay the recorded synthesis time) are identical, and the warm run is
// served by store hits.
TEST(Experiments, Table1WarmReplayFromStore) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("spiv_experiments_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    store::CertStore cache{dir.string()};
    ExperimentConfig config = small_config();
    config.store = &cache;

    const Table1Result cold = run_table1(config);
    const std::uint64_t cold_hits = cache.stats().hits();
    const Table1Result warm = run_table1(config);
    EXPECT_GT(cache.stats().hits(), cold_hits);
    EXPECT_EQ(format_table1(warm), format_table1(cold));
    EXPECT_EQ(table1_csv(warm), table1_csv(cold));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Experiments, Figure3AndRoundingOnSubset) {
  Table1Result table1 = run_table1(small_config());
  // Subsample candidates to keep the test fast.
  std::vector<CandidateRecord> subset;
  for (std::size_t i = 0; i < table1.candidates.size(); i += 8)
    subset.push_back(table1.candidates[i]);
  ASSERT_FALSE(subset.empty());

  ExperimentConfig config = small_config();
  Figure3Result fig3 = run_figure3(subset, config);
  EXPECT_EQ(fig3.engines.size(), 8u);
  EXPECT_EQ(fig3.samples.size(), subset.size() * fig3.engines.size());
  for (const auto& sample : fig3.samples)
    EXPECT_NE(sample.outcome, smt::Outcome::Timeout);
  EXPECT_FALSE(format_figure3(fig3).empty());
  EXPECT_FALSE(figure3_csv(fig3).empty());

  RoundingResult rounding = run_rounding_study(subset, config);
  ASSERT_EQ(rounding.digit_levels.size(), 3u);
  // At 10 digits everything valid; coarser roundings may lose some.
  for (const auto& [name, cells] : rounding.counts) {
    EXPECT_EQ(cells[0].invalid, 0) << name;
    EXPECT_GT(cells[0].valid, 0) << name;
  }
  EXPECT_FALSE(format_rounding(rounding).empty());
}

TEST(Experiments, Table2OnSize5) {
  ExperimentConfig config = small_config();
  Table2Result result = run_table2(config, {5});
  // 1 model x 2 modes x 11 strategies (eq-smt skipped).
  EXPECT_EQ(result.entries.size(), 2u * 11u);
  int certified = 0;
  for (const auto& e : result.entries)
    if (e.certified) {
      ++certified;
      EXPECT_GT(e.epsilon, 0.0);
      EXPECT_TRUE(e.optimal);
    }
  EXPECT_GT(certified, 11);  // the vast majority certifies
  EXPECT_FALSE(format_table2(result).empty());
  EXPECT_FALSE(table2_csv(result).empty());
}

TEST(Experiments, PiecewiseNegativeResultOnSize3) {
  ExperimentConfig config = small_config();
  PiecewiseResult result = run_piecewise(config);
  ASSERT_EQ(result.entries.size(), 2u);  // two encodings
  for (const auto& e : result.entries) {
    EXPECT_TRUE(e.candidate_found) << "encoding";
    EXPECT_FALSE(e.validation.surface);
  }
  EXPECT_FALSE(format_piecewise(result).empty());
}

}  // namespace
}  // namespace spiv::core
