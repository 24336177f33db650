// spiv::core — presentation of experiment results: the paper's table
// layouts on stdout, plus machine-readable CSV.
#pragma once

#include <string>

#include "core/experiments.hpp"

namespace spiv::core {

/// Table I layout: one row per strategy, one (time, valid) column pair per
/// size; "TO" where every case of a cell timed out.
[[nodiscard]] std::string format_table1(const Table1Result& result);
[[nodiscard]] std::string table1_csv(const Table1Result& result);

/// Fig. 3 layout: a cactus table — for each engine, the cumulative number
/// of validation obligations solved within increasing time budgets.
[[nodiscard]] std::string format_figure3(const Figure3Result& result);
[[nodiscard]] std::string figure3_csv(const Figure3Result& result);

/// Rounding study: valid/invalid counts per strategy and digit level.
[[nodiscard]] std::string format_rounding(const RoundingResult& result);

/// Table II layout: per size and mode, one row per strategy with
/// (time, vol, eps), highlighting the per-column maxima like the paper.
[[nodiscard]] std::string format_table2(const Table2Result& result);
[[nodiscard]] std::string table2_csv(const Table2Result& result);

/// Piecewise experiment: candidate-found / per-condition verdicts.
[[nodiscard]] std::string format_piecewise(const PiecewiseResult& result);

/// Write `text` to `path` (overwrites); returns success.
bool write_file(const std::string& path, const std::string& text);

}  // namespace spiv::core
