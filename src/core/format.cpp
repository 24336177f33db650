#include "core/format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace spiv::core {

namespace {

std::string fixed(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string scientific(double v) {
  if (std::isinf(v)) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0e", v);
  return buf;
}

std::string pad(std::string s, std::size_t width, bool left = false) {
  if (s.size() < width) {
    std::string fill(width - s.size(), ' ');
    s = left ? s + fill : fill + s;
  }
  return s;
}

// Printable synthesis time of a Table I cell.  "TO" is reserved for cells
// where every case ran out of budget; a cell that synthesized nothing for
// another reason (solver failure, or an empty cell with zero cases) prints
// "-" so an all-timeout row can't be confused with a missing one.
std::string cell_time(const Table1Cell& cell, int precision) {
  if (cell.synthesized > 0) return fixed(cell.avg_synth_seconds(), precision);
  if (cell.cases > 0 && cell.timeouts == cell.cases) return "TO";
  return "-";
}

}  // namespace

std::string format_table1(const Table1Result& result) {
  std::set<std::size_t> sizes;
  for (const auto& row : result.cells)
    for (const auto& [size, cell] : row) sizes.insert(size);

  std::ostringstream os;
  os << "TABLE I — SYNTHESIS AND VALIDATION OF LYAPUNOV FUNCTIONS\n";
  os << pad("method", 8, true) << pad("solver", 11, true);
  for (std::size_t size : sizes)
    os << pad("size " + std::to_string(size), 12) << pad("valid", 7);
  os << "\n";
  for (std::size_t s = 0; s < result.strategies.size(); ++s) {
    const Strategy& strategy = result.strategies[s];
    os << pad(lyap::to_string(strategy.method), 8, true)
       << pad(strategy.backend_name(), 11, true);
    for (std::size_t size : sizes) {
      auto it = result.cells[s].find(size);
      if (it == result.cells[s].end()) {
        os << pad("-", 12) << pad("-", 7);
        continue;
      }
      const Table1Cell& cell = it->second;
      os << pad(cell_time(cell, 2), 12)
         << pad(std::to_string(cell.valid) + "/" + std::to_string(cell.cases),
                7);
    }
    os << "\n";
  }
  return os.str();
}

std::string table1_csv(const Table1Result& result) {
  std::ostringstream os;
  os << "method,solver,size,avg_synth_seconds,valid,cases,timeouts\n";
  // cells and strategies are populated together by run_table1; take the
  // min so a hand-built partial result cannot index out of range.
  const std::size_t rows = std::min(result.strategies.size(),
                                    result.cells.size());
  for (std::size_t s = 0; s < rows; ++s)
    for (const auto& [size, cell] : result.cells[s]) {
      if (cell.cases == 0) continue;  // empty cell: nothing to report
      os << lyap::to_string(result.strategies[s].method) << ","
         << result.strategies[s].backend_name() << "," << size << ","
         << cell_time(cell, 6) << "," << cell.valid << "," << cell.cases
         << "," << cell.timeouts << "\n";
    }
  return os.str();
}

std::string format_figure3(const Figure3Result& result) {
  // Cactus: cumulative #solved (Valid or Invalid answers both count as
  // solved obligations) within time budgets.
  const std::vector<double> budgets = {0.001, 0.01, 0.1, 0.5, 1,
                                       5,     10,   30,  60,  120};
  std::ostringstream os;
  os << "FIGURE 3 — VALIDATION TIME WITH DIFFERENT SOLVERS (cactus)\n";
  os << pad("engine", 14, true);
  for (double b : budgets) os << pad("<=" + fixed(b, 3) + "s", 11);
  os << pad("total", 8) << "\n";
  for (std::size_t e = 0; e < result.engines.size(); ++e) {
    std::vector<double> solved_times;
    int total = 0;
    for (const auto& sample : result.samples) {
      if (sample.engine_index != e) continue;
      ++total;
      if (sample.outcome != smt::Outcome::Timeout)
        solved_times.push_back(sample.seconds);
    }
    std::sort(solved_times.begin(), solved_times.end());
    os << pad(result.engines[e].name(), 14, true);
    for (double b : budgets) {
      const auto n = std::upper_bound(solved_times.begin(),
                                      solved_times.end(), b) -
                     solved_times.begin();
      os << pad(std::to_string(n), 11);
    }
    os << pad(std::to_string(total), 8) << "\n";
  }
  return os.str();
}

std::string figure3_csv(const Figure3Result& result) {
  std::ostringstream os;
  os << "engine,candidate,outcome,seconds\n";
  for (const auto& sample : result.samples) {
    const char* outcome = sample.outcome == smt::Outcome::Valid ? "valid"
                          : sample.outcome == smt::Outcome::Invalid
                              ? "invalid"
                              : "timeout";
    os << result.engines[sample.engine_index].name() << ","
       << sample.candidate_index << "," << outcome << ","
       << fixed(sample.seconds, 6) << "\n";
  }
  return os.str();
}

std::string format_rounding(const RoundingResult& result) {
  std::ostringstream os;
  os << "ROUNDING ROBUSTNESS — candidates re-validated at coarser "
        "significant-figure roundings\n";
  os << pad("strategy", 18, true);
  for (int d : result.digit_levels)
    os << pad(std::to_string(d) + " digits", 14);
  os << "\n";
  int totals_invalid[16] = {0};
  for (const auto& [name, cells] : result.counts) {
    os << pad(name, 18, true);
    for (std::size_t d = 0; d < cells.size(); ++d) {
      os << pad(std::to_string(cells[d].valid) + "v/" +
                    std::to_string(cells[d].invalid) + "i",
                14);
      totals_invalid[d] += cells[d].invalid;
    }
    os << "\n";
  }
  os << pad("TOTAL invalid", 18, true);
  for (std::size_t d = 0; d < result.digit_levels.size(); ++d)
    os << pad(std::to_string(totals_invalid[d]), 14);
  os << "\n";
  return os.str();
}

std::string format_table2(const Table2Result& result) {
  std::ostringstream os;
  os << "TABLE II — SYNTHESIS OF ROBUST REGIONS\n";
  // Group by (size, mode).
  std::set<std::pair<std::size_t, std::size_t>> groups;
  for (const auto& e : result.entries) groups.insert({e.size, e.mode});
  for (auto [size, mode] : groups) {
    os << "-- size " << size << ", mode " << mode << " --\n";
    os << pad("method", 8, true) << pad("solver", 11, true) << pad("time", 10)
       << pad("vol", 10) << pad("eps", 10) << pad("cert", 6) << pad("opt", 5)
       << "\n";
    double best_vol = 0.0, best_eps = 0.0;
    for (const auto& e : result.entries)
      if (e.size == size && e.mode == mode && e.certified) {
        best_vol = std::max(best_vol, e.volume);
        best_eps = std::max(best_eps, e.epsilon);
      }
    for (const auto& e : result.entries) {
      if (e.size != size || e.mode != mode) continue;
      os << pad(lyap::to_string(e.strategy.method), 8, true)
         << pad(e.strategy.backend_name(), 11, true);
      if (!e.synthesized) {
        os << pad("-", 10) << pad("-", 10) << pad("-", 10) << pad("-", 6)
           << pad("-", 5) << "\n";
        continue;
      }
      os << pad(fixed(e.seconds, 2), 10)
         << pad(scientific(e.volume) +
                    (e.certified && e.volume == best_vol ? "*" : ""),
                10)
         << pad(scientific(e.epsilon) +
                    (e.certified && e.epsilon == best_eps ? "*" : ""),
                10)
         << pad(e.certified ? "yes" : "no", 6)
         << pad(e.optimal ? "yes" : "no", 5) << "\n";
    }
  }
  os << "(* = column maximum among certified entries, cf. the paper's "
        "highlighting)\n";
  return os.str();
}

std::string table2_csv(const Table2Result& result) {
  std::ostringstream os;
  os << "model,size,mode,method,solver,synthesized,certified,optimal,"
        "seconds,volume,epsilon\n";
  for (const auto& e : result.entries)
    os << e.model_name << "," << e.size << "," << e.mode << ","
       << lyap::to_string(e.strategy.method) << "," << e.strategy.backend_name()
       << "," << e.synthesized << "," << e.certified << "," << e.optimal << ","
       << fixed(e.seconds, 4) << "," << scientific(e.volume) << ","
       << scientific(e.epsilon) << "\n";
  return os.str();
}

std::string format_piecewise(const PiecewiseResult& result) {
  std::ostringstream os;
  os << "PIECEWISE-QUADRATIC LYAPUNOV FOR THE SWITCHED SYSTEM (paper "
        "§VI-B2)\n";
  os << pad("model", 8, true) << pad("encoding", 10, true)
     << pad("candidate", 11) << pad("synth s", 9) << pad("pos0", 6)
     << pad("pos1", 6) << pad("dec0", 6) << pad("dec1", 6)
     << pad("surface", 9) << "\n";
  for (const auto& e : result.entries) {
    os << pad(e.model_name, 8, true)
       << pad(e.encoding == lyap::SurfaceEncoding::Equality ? "equality"
                                                            : "relaxed",
              10, true)
       << pad(e.candidate_found ? "found" : "none", 11);
    if (!e.candidate_found) {
      os << "\n";
      continue;
    }
    auto yn = [](bool b) { return b ? "ok" : "FAIL"; };
    os << pad(fixed(e.synth_seconds, 2), 9) << pad(yn(e.validation.positivity0), 6)
       << pad(yn(e.validation.positivity1), 6) << pad(yn(e.validation.decrease0), 6)
       << pad(yn(e.validation.decrease1), 6) << pad(yn(e.validation.surface), 9)
       << "\n";
  }
  os << "(paper's result: candidates are always found, the exact surface "
        "check always fails)\n";
  return os.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace spiv::core
