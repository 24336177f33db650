#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace spivbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// ------------------------------------------------------------- generator

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string ServiceRequest::id() const {
  return case_name + "/" + std::to_string(mode) + "/" + method + "/" + backend;
}

std::string ServiceRequest::tail(const std::string& cases_dir,
                                 double timeout_seconds) const {
  std::ostringstream os;
  os << cases_dir << "/" << case_name << ".spivcase " << mode << " " << method
     << " " << backend << " sylvester 10 " << timeout_seconds;
  return os.str();
}

const std::vector<std::size_t>& service_sizes() {
  static const std::vector<std::size_t> sizes = {3, 5, 10, 15, 18};
  return sizes;
}

namespace {

std::vector<ServiceRequest> request_grid(
    std::size_t modes,
    const std::vector<std::pair<std::string, std::string>>& methods) {
  std::vector<ServiceRequest> out;
  for (const std::size_t size : service_sizes())
    for (std::size_t mode = 0; mode < modes; ++mode)
      for (const auto& [method, backend] : methods)
        out.push_back({"size" + std::to_string(size), size, mode, method,
                       backend});
  return out;
}

}  // namespace

std::vector<ServiceRequest> warm_set() {
  return request_grid(2, {{"eq-num", "-"}, {"modal", "-"}});
}

std::vector<ServiceRequest> cold_set() {
  std::vector<std::pair<std::string, std::string>> methods = {{"eq-num", "-"},
                                                              {"modal", "-"}};
  for (const char* method : {"LMI", "LMIa", "LMIa+"})
    for (const char* backend : {"newton-ac", "fast-ipm"})
      methods.emplace_back(method, backend);
  return request_grid(2, methods);
}

Rng connection_rng(std::uint64_t seed, std::size_t connection) {
  Rng mix{seed ^ (0x5851f42d4c957f2dull * (connection + 1))};
  return Rng{mix.next()};
}

std::vector<std::size_t> seeded_order(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  Rng rng{seed};
  for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

// ---------------------------------------------------------- reply parser

namespace {

/// Value of ` name=value` in `line` (empty when absent).
std::string field(const std::string& line, const std::string& name) {
  const std::string needle = " " + name + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t from = at + needle.size();
  return line.substr(from, line.find(' ', from) - from);
}

std::size_t id_field(const std::string& line) {
  const std::string v = field(line, "id");
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    return 0;
  return std::stoul(v);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

Reply parse_reply(const std::string& line) {
  Reply r;
  if (starts_with(line, "queued ")) {
    r.kind = ReplyKind::Queued;
    r.id = id_field(line);
  } else if (starts_with(line, "result ")) {
    r.kind = ReplyKind::Result;
    r.id = id_field(line);
    r.status = field(line, "status");
    r.cache = field(line, "cache");
    r.key = field(line, "key");
  } else if (starts_with(line, "busy ")) {
    r.kind = ReplyKind::Busy;
    r.id = id_field(line);
  } else if (starts_with(line, "error")) {
    r.kind = ReplyKind::Error;
  } else if (starts_with(line, "batch-done ")) {
    r.kind = ReplyKind::BatchDone;
  }
  return r;
}

Outcome outcome_of(const Reply& reply) {
  if (reply.kind == ReplyKind::Busy) return Outcome::Busy;
  if (reply.kind != ReplyKind::Result) return Outcome::Error;
  if (reply.status == "timeout") return Outcome::Timeout;
  if (reply.status == "error" || reply.status == "synth-failed")
    return Outcome::Error;
  return Outcome::Ok;
}

// ------------------------------------------------------------- statistics

double percentile(std::vector<double> values, std::size_t misses,
                  double miss_value, double p, double window) {
  values.insert(values.end(), misses, miss_value);
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Ranks are 1-based: rank r covers the quantile interval ((r-1)/n, r/n].
  // The epsilon keeps 0.45 * 100 from rounding up to rank 46.
  const auto rank = [n](double q) {
    return static_cast<std::size_t>(std::clamp(std::ceil(q * n - 1e-9), 1.0, n));
  };
  const std::size_t lo = rank(p - window);
  const std::size_t hi = std::max(lo, rank(p + window));
  double sum = 0.0;
  for (std::size_t r = lo; r <= hi; ++r) sum += values[r - 1];
  return sum / static_cast<double>(hi - lo + 1);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 ? values[m] : 0.5 * (values[m - 1] + values[m]);
}

// ------------------------------------------------------------------ spans

std::vector<SpanRec>& Tracer::local() {
  // One buffer per (thread, tracer); the cache below remembers the last
  // tracer this thread wrote to, which is the only one in practice.
  thread_local std::shared_ptr<Buffer> buffer;
  if (!buffer || buffer->owner != this) {
    buffer = std::make_shared<Buffer>();
    buffer->owner = this;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(buffer);
  }
  return buffer->spans;
}

void Tracer::record(SpanRec rec) { local().push_back(std::move(rec)); }

std::vector<SpanRec> Tracer::collect() const {
  std::vector<SpanRec> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(), [](const SpanRec& a, const SpanRec& b) {
    return a.start < b.start || (a.start == b.start && a.id < b.id);
  });
  return all;
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t parent,
           std::uint64_t request, std::string tag)
    : tracer_(tracer) {
  rec_.name = name;
  rec_.tag = std::move(tag);
  rec_.parent = parent;
  rec_.request = request;
  rec_.id = tracer ? tracer->next_id() : 0;
  rec_.start = now_s();
}

Span::~Span() {
  if (!tracer_) return;
  rec_.end = now_s();
  tracer_->record(std::move(rec_));
}

std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRec& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRec& p = spans[it->second];
    const double a = std::max(s.start, p.start), b = std::min(s.end, p.end);
    if (b > a) children[it->second].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return out;
}

void write_jsonl(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream out{path};
  char buf[160];
  for (const SpanRec& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "\",\"start_us\":%.3f,\"end_us\":%.3f,\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}\n",
                  s.start * 1e6, s.end * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << "{\"name\":\"" << s.name << "\",\"tag\":\"" << s.tag << buf;
  }
}

// -------------------------------------------------------------- reference

std::optional<Reference> read_reference(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t a = line.find('\t');
    const std::size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) return std::nullopt;
    ref[line.substr(0, b)] = line.substr(b + 1);
  }
  return ref;
}

void write_reference(const std::string& path, const Reference& ref,
                     const std::string& header) {
  std::ofstream out{path};
  out << header;
  for (const auto& [k, v] : ref) out << k << "\t" << v << "\n";
}

std::string digest(const std::string& bytes) {
  const auto fnv = [&bytes](std::uint64_t h) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return h;
  };
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(fnv(14695981039346656037ull)),
                static_cast<unsigned long long>(fnv(0x84222325cbf29ce4ull)));
  return buf;
}

}  // namespace spivbench
