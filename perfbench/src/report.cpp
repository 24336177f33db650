#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace spivbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"net.ack_us", "us"},
        {"net.bytes_per_req", "bytes"},
        {"service.after_ack_us", "us"},
        {"service.shed", "count"},
        {"core.pool_wait_us", "us"},
        {"core.busy_frac", "ratio"},
        {"core.steals", "count"},
    };
    const std::vector<std::size_t> sizes = {3, 5, 10, 15, 18};
    for (const char* layer :
         {"model.read_case_us", "model.close_loop_us", "store.key_us"})
      for (std::size_t s : sizes) c.emplace_back(std::string{layer} + "." + size_tag(s), "us");
    c.insert(c.end(), {{"store.lookup_memory_us", "us"},
                       {"store.lookup_miss_us", "us"},
                       {"store.hit_ratio", "ratio"},
                       {"store.insert_ms", "ms"},
                       {"store.bytes_written", "bytes"},
                       {"verify.hit_us", "us"},
                       {"verify.self_us", "us"}});
    for (const char* m : {"eq_smt", "eq_num", "modal", "lmi", "lmia", "lmia_plus"})
      c.emplace_back(std::string{"lyapunov.synth_ms."} + m, "ms");
    for (const char* b : {"newton_ac", "fast_ipm"}) {
      c.emplace_back(std::string{"sdp.solve_ms."} + b, "ms");
      c.emplace_back(std::string{"sdp.iterations."} + b, "count");
    }
    for (const char* layer : {"smt.positivity_ms", "smt.decrease_ms"})
      for (std::size_t s : sizes) c.emplace_back(std::string{layer} + "." + size_tag(s), "ms");
    for (std::size_t s : {10, 15, 18}) {
      for (const char* phase : {"elim_s", "crt_s", "reconstruct_s", "verify_s"})
        c.emplace_back("exact." + std::string{phase} + "." + size_tag(s), "s");
      for (const char* count : {"primes_used", "unlucky_primes", "fallbacks"})
        c.emplace_back("exact." + std::string{count} + "." + size_tag(s), "count");
    }
    c.insert(c.end(), {{"exact.parallel_speedup", "x"},
                       {"bench.trace_coverage", "ratio"},
                       {"bench.trace_overhead", "ratio"}});
    return c;
  }();
  return catalogue;
}

std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_catalogue()) {
    const auto it = values.find(name);
    out.push_back({name, unit, it == values.end() ? 0.0 : it->second});
  }
  return out;
}

std::map<std::string, double> LayerSamples::finish() const {
  std::map<std::string, double> out = fixed_;
  for (const auto& [name, v] : samples_) out[name] = median(v);
  return out;
}

std::string size_tag(std::size_t size) { return "size" + std::to_string(size); }

std::string metric_safe(std::string name) {
  std::string out;
  for (const char c : name) {
    if (c == '+')
      out += "_plus";
    else if (c == '-')
      out += '_';
    else
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

void print_breakdown(const std::vector<SpanRec>& spans,
                     const std::vector<double>& self) {
  struct Row {
    std::vector<double> self;
    double total = 0.0;
  };
  std::map<std::string, Row> rows;
  double all = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::string key = spans[i].name;
    if (!spans[i].tag.empty()) key += "[" + spans[i].tag + "]";
    Row& r = rows[key];
    r.self.push_back(self[i]);
    r.total += self[i];
    all += self[i];
  }
  std::printf("# self-time breakdown (%zu spans)\n", spans.size());
  std::printf("# %-36s %8s %14s %12s %7s\n", "layer[tag]", "spans",
              "median_self_us", "total_self_s", "share");
  for (const auto& [key, r] : rows)
    std::printf("# %-36s %8zu %14.2f %12.4f %6.1f%%\n", key.c_str(),
                r.self.size(), median(r.self) * 1e6, r.total,
                all > 0.0 ? 100.0 * r.total / all : 0.0);
}

double span_cost_seconds() {
  Tracer tracer;
  constexpr int kSpans = 20000;
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) Span s{&tracer, "probe", 1, 1};
  return (now_s() - t0) / kSpans;
}

}  // namespace spivbench
