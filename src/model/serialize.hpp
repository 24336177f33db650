// spiv::model — plain-text (de)serialization of models.
//
// A small line-oriented format so benchmark instances can be exported,
// archived (the paper plans to contribute this case study to ARCH-COMP)
// and re-loaded without recompiling:
//
//   spiv-case v1
//   plant 18 3 4
//   A
//   <18 rows of 18 numbers>
//   B
//   ...
//   C
//   ...
//   controller 2            # number of modes
//   mode
//   KP <3x4 numbers...> KI <3x4 numbers...>
//   guards 1
//   g <p numbers> h <num> h_r <p numbers> strict <0|1>
//   ...
//   references <p numbers>
//
// Numbers are written with 17 significant digits (printf's %.17g,
// round-trip exact for doubles).  Readers split the input at whitespace
// (so CRLF and tab-separated files read like space-separated ones) and
// accept a number only when the whole token is numeric: "1.5abc", "0x1p3"
// and a bare "+" are rejected, a leading '+' is accepted.  Both directions
// are locale-free (numeric/text.hpp).  Readers accept only finite numbers:
// "nan"/"inf" tokens raise std::runtime_error instead of silently poisoning
// the model.
#pragma once

#include <iosfwd>
#include <string>

#include "model/reduction.hpp"
#include "model/state_space.hpp"
#include "model/switched_pi.hpp"

namespace spiv::model {

/// Serialize / parse a bare state-space model.  The readers consume the
/// whole stream.
void write_state_space(std::ostream& os, const StateSpace& sys);
[[nodiscard]] StateSpace read_state_space(std::istream& is);

/// Serialize / parse a full benchmark case (plant + switched controller +
/// references).  Throws std::runtime_error on malformed input.
void write_case(std::ostream& os, const BenchmarkModel& bm);
[[nodiscard]] BenchmarkModel read_case(std::istream& is);

/// String convenience wrappers.
[[nodiscard]] std::string case_to_string(const BenchmarkModel& bm);
[[nodiscard]] BenchmarkModel case_from_string(const std::string& text);

}  // namespace spiv::model
