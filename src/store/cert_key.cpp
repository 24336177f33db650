#include "store/cert_key.hpp"

#include "numeric/text.hpp"

namespace spiv::store {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string canonical_request_bytes(const CertRequest& request) {
  using numeric::text::append_double;
  const numeric::Matrix& a = request.a;
  std::string out;
  // A %.17g double is at most 24 bytes, plus one separator.
  out.reserve(160 + a.rows() * a.cols() * 25);
  out += "spiv-req v2\nmethod ";
  out += lyap::to_string(request.method);
  out += " backend ";
  out += request.backend ? sdp::to_string(*request.backend) : "-";
  out += " engine ";
  out += smt::to_string(request.engine);
  out += " digits ";
  out += std::to_string(request.digits);
  out += '\n';
  // Synthesis parameters shape the result only for the LMI methods;
  // omitting them elsewhere lets eq-smt/eq-num/modal certificates be
  // shared across alpha/nu/kappa sweeps.
  if (lyap::is_lmi_method(request.method)) {
    out += "alpha ";
    append_double(out, request.alpha);
    out += " nu ";
    append_double(out, request.nu);
    out += " kappa ";
    append_double(out, request.kappa);
    out += '\n';
  }
  out += "a ";
  out += std::to_string(a.rows());
  out += ' ';
  out += std::to_string(a.cols());
  out += '\n';
  numeric::text::append_matrix(out, a);
  return out;
}

std::string request_key(const CertRequest& request) {
  const std::string bytes = canonical_request_bytes(request);
  // Two independent lanes, hashed in one pass: the second seed is the FNV
  // offset basis xored with a 64-bit odd constant, giving a 128-bit key
  // whose collision odds are negligible for any realistic store size.
  std::uint64_t lo = kFnvOffset;
  std::uint64_t hi = kFnvOffset ^ 0x9e3779b97f4a7c15ull;
  for (unsigned char c : bytes) {
    lo = (lo ^ c) * kFnvPrime;
    hi = (hi ^ c) * kFnvPrime;
  }
  std::string key;
  key.reserve(32);
  numeric::text::append_hex64(key, hi);
  numeric::text::append_hex64(key, lo);
  return key;
}

}  // namespace spiv::store
