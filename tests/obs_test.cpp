// Tests for the obs subsystem: exact counter totals under concurrency
// (run under tsan by the tsan preset), histogram bucket boundary
// semantics, registry identity and Prometheus exposition, and span
// nesting/stage attribution.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/span.hpp"

namespace spiv::obs {
namespace {

// ------------------------------------------------------------- counters

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
      counter.add(5);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * (kPerThread + 5));
}

TEST(Gauge, TracksAddSubSet) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.add(7);
  gauge.sub(3);
  EXPECT_EQ(gauge.value(), 4);
  gauge.sub(10);
  EXPECT_EQ(gauge.value(), -6);  // gauges may go negative transiently
  gauge.set(42);
  EXPECT_EQ(gauge.value(), 42);
}

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketBoundariesAreLogScaleWithLeSemantics) {
  // Bounds are 1 µs · 2^i; an observation exactly on a bound belongs to
  // that bucket (Prometheus `le` = less-or-equal).
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(10), 1024e-6);
  EXPECT_TRUE(std::isinf(Histogram::bucket_bound(Histogram::kBuckets - 1)));

  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-6), 0u);           // on the bound
  EXPECT_EQ(Histogram::bucket_index(1.0000001e-6), 1u);   // just past it
  EXPECT_EQ(Histogram::bucket_index(2e-6), 1u);
  EXPECT_EQ(Histogram::bucket_index(3e-6), 2u);
  EXPECT_EQ(Histogram::bucket_index(1e9), Histogram::kBuckets - 1);

  Histogram h;
  h.observe(1e-6);
  h.observe(1.5e-6);
  h.observe(1e9);
  EXPECT_EQ(h.cumulative(0), 1u);
  EXPECT_EQ(h.cumulative(1), 2u);
  // The +Inf bucket's cumulative count equals the total count.
  EXPECT_EQ(h.cumulative(Histogram::kBuckets - 1), 3u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, ConcurrentObservationsCountExactly) {
  Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        h.observe(1e-6 * static_cast<double>(t + 1));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.cumulative(Histogram::kBuckets - 1), kThreads * kPerThread);
  EXPECT_GT(h.sum_seconds(), 0.0);
}

// ------------------------------------------------------------- registry

TEST(RegistryTest, SameNameYieldsSameInstance) {
  Registry registry;
  Counter& a = registry.counter("obs_test_total");
  Counter& b = registry.counter("obs_test_total");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &registry.counter("obs_test_other_total"));
  Histogram& h1 = registry.histogram("obs_test_seconds{stage=\"x\"}");
  Histogram& h2 = registry.histogram("obs_test_seconds{stage=\"x\"}");
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, ExposesPrometheusTextWithTypesAndLabels) {
  Registry registry;
  registry.counter("t_requests_total").add(3);
  registry.gauge("t_depth").set(-2);
  Histogram& h = registry.histogram("t_latency_seconds{stage=\"synth\"}");
  h.observe(0.5);
  h.observe(3e-6);

  const std::string text = registry.expose();
  EXPECT_NE(text.find("# TYPE t_requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("t_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("t_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_latency_seconds histogram\n"),
            std::string::npos);
  // Histogram labels merge with the le label; +Inf bucket present; sum and
  // count carry the original label set.
  EXPECT_NE(text.find("t_latency_seconds_bucket{stage=\"synth\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("t_latency_seconds_count{stage=\"synth\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("t_latency_seconds_sum{stage=\"synth\"} 0.5"),
            std::string::npos);
  // OpenMetrics-style terminator, and every line is a comment or a
  // `name value` sample.
  EXPECT_EQ(text.rfind("# EOF"), text.size() - 5);
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
}

// ---------------------------------------------------------------- spans

TEST(SpanTest, NestsAndAttributesToStageHistograms) {
  Histogram& outer_h = Registry::global().histogram(
      "spiv_stage_seconds{stage=\"obs-test-outer\"}");
  Histogram& inner_h = Registry::global().histogram(
      "spiv_stage_seconds{stage=\"obs-test-inner\"}");
  const std::uint64_t outer_before = outer_h.count();
  const std::uint64_t inner_before = inner_h.count();
  {
    Span outer{"obs-test-outer"};
    EXPECT_EQ(outer.depth(), 0);
    {
      Span inner{"obs-test-inner", "first"};
      EXPECT_EQ(inner.depth(), 1);
    }
    {
      Span inner{"obs-test-inner", "second"};
      EXPECT_EQ(inner.depth(), 1);  // sibling, not deeper
    }
    EXPECT_GE(outer.elapsed_seconds(), 0.0);
  }
  Span after{"obs-test-outer"};
  EXPECT_EQ(after.depth(), 0);  // stack unwound completely
  EXPECT_EQ(outer_h.count(), outer_before + 1);
  EXPECT_EQ(inner_h.count(), inner_before + 2);
}

TEST(SpanTest, ConcurrentSpansCountExactly) {
  Histogram& h = Registry::global().histogram(
      "spiv_stage_seconds{stage=\"obs-test-mt\"}");
  const std::uint64_t before = h.count();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kPerThread; ++i) Span span{"obs-test-mt"};
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), before + kThreads * kPerThread);
}

TEST(SpanTest, ResolvedStageHistogramKeepsTheExpositionTheSame) {
  // A span observing into a histogram resolved once (the warm request
  // path) records exactly where a span looked up by stage name does: the
  // same series, the same families in the exposition, the same counts.
  // A dismissed span records nothing.
  Registry& registry = Registry::global();
  Histogram& resolved = stage_histogram("obs-test-resolved");
  EXPECT_EQ(&resolved, &registry.histogram(
                           "spiv_stage_seconds{stage=\"obs-test-resolved\"}"));
  const auto families = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is{text};
    for (std::string line; std::getline(is, line);)
      if (line.rfind("# TYPE ", 0) == 0) lines.push_back(line);
    return lines;
  };
  const std::string before = registry.expose();
  const std::uint64_t count0 = resolved.count();
  {
    Span by_name{"obs-test-resolved", "by name"};
    Span by_ref{resolved, "obs-test-resolved", "resolved"};
    EXPECT_EQ(by_ref.depth(), by_name.depth() + 1);
  }
  {
    Span dismissed{resolved, "obs-test-resolved"};
    dismissed.dismiss();
  }
  Span after{"obs-test-resolved"};
  EXPECT_EQ(after.depth(), 0);  // a dismissed span still unwinds the stack
  EXPECT_EQ(resolved.count(), count0 + 2);
  const std::string exposed = registry.expose();
  EXPECT_EQ(families(exposed), families(before));
  EXPECT_NE(
      exposed.find("spiv_stage_seconds_count{stage=\"obs-test-resolved\"} " +
                   std::to_string(count0 + 2) + "\n"),
      std::string::npos);
}

}  // namespace
}  // namespace spiv::obs
