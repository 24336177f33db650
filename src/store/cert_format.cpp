#include "store/cert_format.hpp"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "numeric/text.hpp"
#include "store/cert_key.hpp"

namespace spiv::store {

using exact::RatMatrix;
using exact::Rational;
using numeric::Matrix;
using numeric::text::Tokens;
using numeric::text::append_double;

namespace {

const char* outcome_name(smt::Outcome o) {
  switch (o) {
    case smt::Outcome::Valid: return "valid";
    case smt::Outcome::Invalid: return "invalid";
    case smt::Outcome::Timeout: return "timeout";
  }
  return "?";
}

smt::Outcome outcome_from_name(std::string_view name) {
  if (name == "valid") return smt::Outcome::Valid;
  if (name == "invalid") return smt::Outcome::Invalid;
  if (name == "timeout") return smt::Outcome::Timeout;
  throw std::runtime_error("spiv-cert: unknown outcome '" + std::string{name} +
                           "'");
}

std::string_view read_token(Tokens& in, const char* what) {
  const auto tok = in.next();
  if (!tok) throw std::runtime_error(std::string{"spiv-cert: truncated "} + what);
  return *tok;
}

void expect_token(Tokens& in, std::string_view expected) {
  const auto tok = in.next();
  if (!tok || *tok != expected)
    throw std::runtime_error("spiv-cert: expected '" + std::string{expected} +
                             "', got '" + std::string{tok.value_or("")} + "'");
}

double read_finite(Tokens& in, const char* what) {
  const auto x = in.next_number<double>();
  if (!x) throw std::runtime_error(std::string{"spiv-cert: truncated "} + what);
  if (!std::isfinite(*x))
    throw std::runtime_error(std::string{"spiv-cert: non-finite "} + what);
  return *x;
}

std::size_t read_size(std::string_view tok, const char* what) {
  const auto n = numeric::text::parse_number<std::size_t>(tok);
  if (!n)
    throw std::runtime_error(std::string{"spiv-cert: bad "} + what + " '" +
                             std::string{tok} + "'");
  return *n;
}

void append_rational(std::string& out, const Rational& r) {
  out += r.num().to_string();
  out += '/';
  out += r.den().to_string();
}

Rational read_rational(Tokens& in) {
  const std::string_view tok = read_token(in, "rational");
  const std::size_t slash = tok.find('/');
  if (slash == std::string_view::npos || slash == 0 || slash + 1 == tok.size())
    throw std::runtime_error("spiv-cert: malformed rational '" +
                             std::string{tok} + "'");
  try {
    return Rational{exact::BigInt{tok.substr(0, slash)},
                    exact::BigInt{tok.substr(slash + 1)}};
  } catch (const std::exception&) {
    throw std::runtime_error("spiv-cert: malformed rational '" +
                             std::string{tok} + "'");
  }
}

void append_verdict(std::string& out, const char* label,
                    const smt::Verdict& v) {
  out += label;
  out += ' ';
  out += outcome_name(v.outcome);
  out += " seconds ";
  append_double(out, v.seconds);
  out += " witness ";
  if (!v.witness) {
    out += "none\n";
    return;
  }
  out += std::to_string(v.witness->size());
  out += '\n';
  for (std::size_t i = 0; i < v.witness->size(); ++i) {
    if (i != 0) out += ' ';
    append_rational(out, (*v.witness)[i]);
  }
  if (!v.witness->empty()) out += '\n';
}

smt::Verdict read_verdict(Tokens& in, std::string_view label) {
  expect_token(in, label);
  smt::Verdict v;
  v.outcome = outcome_from_name(read_token(in, "verdict"));
  expect_token(in, "seconds");
  v.seconds = read_finite(in, "verdict seconds");
  expect_token(in, "witness");
  const std::string_view witness = read_token(in, "witness header");
  if (witness != "none") {
    const std::size_t n = read_size(witness, "witness size");
    std::vector<Rational> w;
    w.reserve(n);
    for (std::size_t i = 0; i < n; ++i) w.push_back(read_rational(in));
    v.witness = std::move(w);
  }
  return v;
}

}  // namespace

std::string cert_to_string(const std::string& key, const CertRecord& record) {
  std::string out = "spiv-cert v1\nkey " + key + "\nmethod " +
                    lyap::to_string(record.candidate.method) +
                    "\nsynth_seconds ";
  append_double(out, record.candidate.synth_seconds);
  const Matrix& p = record.candidate.p;
  out += "\np " + std::to_string(p.rows()) + " " + std::to_string(p.cols()) +
         "\n";
  numeric::text::append_matrix(out, p);
  if (record.candidate.exact_p) {
    const RatMatrix& ep = *record.candidate.exact_p;
    out += "exact_p " + std::to_string(ep.rows()) + " " +
           std::to_string(ep.cols()) + "\n";
    for (std::size_t i = 0; i < ep.rows(); ++i) {
      for (std::size_t j = 0; j < ep.cols(); ++j) {
        if (j != 0) out += ' ';
        append_rational(out, ep(i, j));
      }
      out += '\n';
    }
  } else {
    out += "exact_p none\n";
  }
  append_verdict(out, "positivity", record.validation.positivity);
  append_verdict(out, "decrease", record.validation.decrease);
  const std::uint64_t sum = fnv1a64(out);
  out += "checksum ";
  numeric::text::append_hex64(out, sum);
  out += '\n';
  return out;
}

CertRecord cert_from_string(const std::string& text,
                            const std::string& expected_key) {
  // Split off and verify the trailing checksum line before parsing anything.
  const std::size_t sum_pos = text.rfind("checksum ");
  if (sum_pos == std::string::npos || (sum_pos > 0 && text[sum_pos - 1] != '\n'))
    throw std::runtime_error("spiv-cert: missing checksum line");
  const std::string_view body = std::string_view{text}.substr(0, sum_pos);
  Tokens sum_line{std::string_view{text}.substr(sum_pos)};
  const auto sum_tok = sum_line.next();
  const auto sum_hex = sum_line.next();
  if (!sum_tok || !sum_hex || sum_hex->size() != 16)
    throw std::runtime_error("spiv-cert: malformed checksum line");
  std::string expect;
  numeric::text::append_hex64(expect, fnv1a64(body));
  if (*sum_hex != expect) throw std::runtime_error("spiv-cert: checksum mismatch");

  Tokens in{body};
  const auto magic = in.next();
  const auto version = in.next();
  if (!magic || !version || *magic != "spiv-cert" || *version != "v1")
    throw std::runtime_error("spiv-cert: not a spiv-cert v1 stream");
  expect_token(in, "key");
  const std::string_view key = read_token(in, "key");
  if (!expected_key.empty() && key != expected_key)
    throw std::runtime_error("spiv-cert: key mismatch (hash collision or "
                             "misplaced file)");
  CertRecord record;
  expect_token(in, "method");
  const std::string method{read_token(in, "method")};
  const auto m = lyap::method_from_string(method);
  if (!m) throw std::runtime_error("spiv-cert: unknown method '" + method + "'");
  record.candidate.method = *m;
  expect_token(in, "synth_seconds");
  record.candidate.synth_seconds = read_finite(in, "synth_seconds");

  expect_token(in, "p");
  const auto rows = in.next_number<std::size_t>();
  const auto cols = in.next_number<std::size_t>();
  if (!rows || !cols) throw std::runtime_error("spiv-cert: bad p header");
  record.candidate.p = Matrix{*rows, *cols};
  for (std::size_t i = 0; i < *rows; ++i)
    for (std::size_t j = 0; j < *cols; ++j)
      record.candidate.p(i, j) = read_finite(in, "p entry");

  expect_token(in, "exact_p");
  const std::string_view ep_header = read_token(in, "exact_p header");
  if (ep_header != "none") {
    const std::size_t ep_rows = read_size(ep_header, "exact_p header");
    const auto ep_cols = in.next_number<std::size_t>();
    if (!ep_cols) throw std::runtime_error("spiv-cert: bad exact_p header");
    RatMatrix ep{ep_rows, *ep_cols};
    for (std::size_t i = 0; i < ep_rows; ++i)
      for (std::size_t j = 0; j < *ep_cols; ++j) ep(i, j) = read_rational(in);
    record.candidate.exact_p = std::move(ep);
  }
  record.validation.positivity = read_verdict(in, "positivity");
  record.validation.decrease = read_verdict(in, "decrease");
  return record;
}

}  // namespace spiv::store
