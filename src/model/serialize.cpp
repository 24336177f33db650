#include "model/serialize.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "numeric/text.hpp"

namespace spiv::model {

using numeric::Matrix;
using numeric::Vector;
using numeric::text::Tokens;
using numeric::text::append_double;
using numeric::text::append_matrix;

namespace {

void append_vector(std::string& out, const Vector& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ' ';
    append_double(out, v[i]);
  }
}

void append_state_space(std::string& out, const StateSpace& sys) {
  out += "plant " + std::to_string(sys.num_states()) + " " +
         std::to_string(sys.num_inputs()) + " " +
         std::to_string(sys.num_outputs()) + "\nA\n";
  append_matrix(out, sys.a);
  out += "B\n";
  append_matrix(out, sys.b);
  out += "C\n";
  append_matrix(out, sys.c);
}

std::string read_all(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

/// Reject "nan"/"inf" like truncated streams: a non-finite entry would
/// silently poison every downstream computation on the model.
double read_finite(Tokens& in, const char* what) {
  const auto x = in.next_number<double>();
  if (!x) throw std::runtime_error(std::string{"serialize: truncated "} + what);
  if (!std::isfinite(*x))
    throw std::runtime_error(std::string{"serialize: non-finite value in "} +
                             what);
  return *x;
}

template <class T>
T read_count(Tokens& in, const char* error) {
  const auto x = in.next_number<T>();
  if (!x) throw std::runtime_error(error);
  return *x;
}

Matrix read_matrix(Tokens& in, std::size_t rows, std::size_t cols) {
  Matrix m{rows, cols};
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m(i, j) = read_finite(in, "matrix data");
  return m;
}

void expect_token(Tokens& in, std::string_view expected) {
  const auto tok = in.next();
  if (!tok || *tok != expected)
    throw std::runtime_error("serialize: expected '" + std::string{expected} +
                             "', got '" + std::string{tok.value_or("")} + "'");
}

Vector read_vector(Tokens& in, std::size_t n) {
  Vector v(n);
  for (auto& x : v) x = read_finite(in, "vector");
  return v;
}

StateSpace parse_state_space(Tokens& in) {
  expect_token(in, "plant");
  constexpr const char* kBadHeader = "serialize: bad plant header";
  const auto n = read_count<std::size_t>(in, kBadHeader);
  const auto m = read_count<std::size_t>(in, kBadHeader);
  const auto p = read_count<std::size_t>(in, kBadHeader);
  StateSpace sys;
  expect_token(in, "A");
  sys.a = read_matrix(in, n, n);
  expect_token(in, "B");
  sys.b = read_matrix(in, n, m);
  expect_token(in, "C");
  sys.c = read_matrix(in, p, n);
  sys.validate();
  return sys;
}

BenchmarkModel parse_case(Tokens& in) {
  const auto magic = in.next();
  const auto version = in.next();
  if (!magic || !version || *magic != "spiv-case" || *version != "v1")
    throw std::runtime_error("serialize: not a spiv-case v1 stream");
  BenchmarkModel bm;
  expect_token(in, "name");
  const auto name = in.next();
  if (!name) throw std::runtime_error("serialize: bad name");
  bm.name = *name;
  expect_token(in, "size");
  bm.size = read_count<std::size_t>(in, "serialize: bad size");
  expect_token(in, "integer");
  bm.integer_rounded = read_count<int>(in, "serialize: bad integer flag") != 0;
  bm.plant = parse_state_space(in);
  const std::size_t m = bm.plant.num_inputs();
  const std::size_t p = bm.plant.num_outputs();

  expect_token(in, "controller");
  const auto modes = read_count<std::size_t>(in, "serialize: bad mode count");
  for (std::size_t i = 0; i < modes; ++i) {
    expect_token(in, "mode");
    PiGains gains;
    expect_token(in, "KP");
    gains.kp = read_matrix(in, m, p);
    expect_token(in, "KI");
    gains.ki = read_matrix(in, m, p);
    bm.controller.gains.push_back(std::move(gains));
    expect_token(in, "guards");
    const auto guards = read_count<std::size_t>(in, "serialize: bad guards");
    std::vector<OutputGuard> region;
    for (std::size_t g = 0; g < guards; ++g) {
      OutputGuard guard;
      expect_token(in, "g");
      guard.g = read_vector(in, p);
      expect_token(in, "h");
      guard.h = read_finite(in, "guard constant h");
      expect_token(in, "h_r");
      guard.h_r = read_vector(in, p);
      expect_token(in, "strict");
      guard.strict = read_count<int>(in, "serialize: bad strict") != 0;
      region.push_back(std::move(guard));
    }
    bm.controller.regions.push_back(std::move(region));
  }
  expect_token(in, "references");
  bm.references = read_vector(in, p);
  return bm;
}

}  // namespace

void write_state_space(std::ostream& os, const StateSpace& sys) {
  std::string out;
  append_state_space(out, sys);
  os << out;
}

StateSpace read_state_space(std::istream& is) {
  const std::string text = read_all(is);
  Tokens in{text};
  return parse_state_space(in);
}

void write_case(std::ostream& os, const BenchmarkModel& bm) {
  os << case_to_string(bm);
}

BenchmarkModel read_case(std::istream& is) {
  const std::string text = read_all(is);
  Tokens in{text};
  return parse_case(in);
}

std::string case_to_string(const BenchmarkModel& bm) {
  std::string out = "spiv-case v1\nname " + bm.name + " size " +
                    std::to_string(bm.size) + " integer " +
                    (bm.integer_rounded ? "1" : "0") + "\n";
  append_state_space(out, bm.plant);
  out += "controller " + std::to_string(bm.controller.num_modes()) + "\n";
  const std::size_t p = bm.plant.num_outputs();
  for (std::size_t i = 0; i < bm.controller.num_modes(); ++i) {
    out += "mode\nKP\n";
    append_matrix(out, bm.controller.gains[i].kp);
    out += "KI\n";
    append_matrix(out, bm.controller.gains[i].ki);
    out += "guards " + std::to_string(bm.controller.regions[i].size()) + "\n";
    for (const auto& g : bm.controller.regions[i]) {
      out += "g ";
      append_vector(out, g.g);
      out += " h ";
      append_double(out, g.h);
      out += " h_r ";
      append_vector(out, g.h_r.empty() ? Vector(p, 0.0) : g.h_r);
      out += g.strict ? " strict 1\n" : " strict 0\n";
    }
  }
  out += "references ";
  append_vector(out, bm.references);
  out += "\n";
  return out;
}

BenchmarkModel case_from_string(const std::string& text) {
  Tokens in{text};
  return parse_case(in);
}

}  // namespace spiv::model
