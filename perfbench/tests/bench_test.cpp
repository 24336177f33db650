// Unit tests for the benchmark's own code: the seeded generator, the reply
// parser and outcome classes, percentiles with misses, and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "bench.hpp"

namespace spivbench {
namespace {

/// The first `n` warm-hits draws of one connection, as the workload makes
/// them.
std::vector<std::size_t> draw_stream(std::uint64_t seed, std::size_t connection,
                                     std::size_t keys, std::size_t n) {
  Rng rng = connection_rng(seed, connection);
  std::vector<std::size_t> out(n);
  for (std::size_t& v : out) v = rng.below(keys);
  return out;
}

TEST(Generator, SameSeedSameStream) {
  EXPECT_EQ(draw_stream(42, 0, 20, 500), draw_stream(42, 0, 20, 500));
  EXPECT_EQ(seeded_order(42, 80), seeded_order(42, 80));
}

TEST(Generator, DifferentSeedOrConnectionDifferentStream) {
  EXPECT_NE(draw_stream(42, 0, 20, 500), draw_stream(43, 0, 20, 500));
  EXPECT_NE(draw_stream(42, 0, 20, 500), draw_stream(42, 1, 20, 500));
  EXPECT_NE(seeded_order(42, 80), seeded_order(43, 80));
}

TEST(Generator, DrawsCoverTheKeysAndOrderIsAPermutation) {
  const auto s = draw_stream(7, 3, 20, 2000);
  std::set<std::size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_LT(*seen.rbegin(), 20u);
  auto order = seeded_order(7, 80);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Generator, RequestSets) {
  const auto warm = warm_set();
  const auto cold = cold_set();
  EXPECT_EQ(warm.size(), 20u);
  EXPECT_EQ(cold.size(), 80u);
  std::set<std::string> cold_ids;
  for (const auto& r : cold) cold_ids.insert(r.id());
  EXPECT_EQ(cold_ids.size(), 80u);
  for (const auto& r : warm) EXPECT_TRUE(cold_ids.count(r.id())) << r.id();
  EXPECT_EQ(cold.front().tail("cases", 120),
            "cases/size3.spivcase 0 eq-num - sylvester 10 120");
}

TEST(ReplyParser, ClassifiesEveryLineKind) {
  Reply r = parse_reply(
      "result id=7 status=valid cache=hit key=0123456789abcdef0123456789abcdef "
      "model=size3 mode=0 method=eq-num backend=- engine=sylvester digits=10 "
      "synth_seconds=0.1 validate_seconds=0.2");
  EXPECT_EQ(r.kind, ReplyKind::Result);
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.status, "valid");
  EXPECT_EQ(r.cache, "hit");
  EXPECT_EQ(r.key, "0123456789abcdef0123456789abcdef");

  r = parse_reply("result id=3 status=error cache=off key=- model=- mode=0 "
                  "method=LMIa backend=newton-ac engine=sylvester digits=10 "
                  "msg=cannot open case file x");
  EXPECT_EQ(r.kind, ReplyKind::Result);
  EXPECT_EQ(r.status, "error");

  r = parse_reply("queued id=12");
  EXPECT_EQ(r.kind, ReplyKind::Queued);
  EXPECT_EQ(r.id, 12u);
  EXPECT_EQ(parse_reply("queued ids=1-4 batch=4").kind, ReplyKind::Queued);

  r = parse_reply("busy id=5 inflight=64 queue_depth=3");
  EXPECT_EQ(r.kind, ReplyKind::Busy);
  EXPECT_EQ(r.id, 5u);

  EXPECT_EQ(parse_reply("error unknown command 'x'").kind, ReplyKind::Error);
  EXPECT_EQ(parse_reply("batch-done ids=1-4 ok=3 failed=0 shed=1").kind,
            ReplyKind::BatchDone);
  EXPECT_EQ(parse_reply("idle").kind, ReplyKind::Other);
}

TEST(ReplyParser, OnlyVerdictsAreOkOutcomes) {
  const auto result = [](const std::string& status) {
    return outcome_of(parse_reply("result id=1 status=" + status +
                                  " cache=miss key=- model=size3 mode=0"));
  };
  EXPECT_EQ(result("valid"), Outcome::Ok);
  EXPECT_EQ(result("invalid"), Outcome::Ok);
  EXPECT_EQ(result("timeout"), Outcome::Timeout);
  EXPECT_EQ(result("synth-failed"), Outcome::Error);
  EXPECT_EQ(result("error"), Outcome::Error);
  EXPECT_EQ(outcome_of(parse_reply("busy id=5 inflight=64 queue_depth=3")),
            Outcome::Busy);
  EXPECT_EQ(outcome_of(parse_reply("error unknown command 'x'")),
            Outcome::Error);
}

TEST(Percentile, PlainSampleWithoutWindow) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0, 1e9, 0.50, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0, 1e9, 0.90, 0.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0, 1e9, 0.99, 0.0), 99.0);
  // Window +-5%: ranks 45..55 averaged.
  EXPECT_DOUBLE_EQ(percentile(v, 0, 1e9, 0.50), 50.0);
}

TEST(Percentile, FailuresCountAsMisses) {
  std::vector<double> v(90, 1.0);
  // 90 fast answers and 10 failures: p90 is still fast, p95 is a miss.
  EXPECT_DOUBLE_EQ(percentile(v, 10, 500.0, 0.90, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10, 500.0, 0.95, 0.0), 500.0);
  // Half failed: the median misses too.
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>(10, 2.0), 11, 500.0, 0.5, 0.0),
                   500.0);
  // Only failures.
  EXPECT_DOUBLE_EQ(percentile({}, 3, 500.0, 0.5), 500.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0, 500.0, 0.5), 0.0);
}

TEST(Percentile, WindowIsSteadyAcrossAGap) {
  // Two well-separated groups meeting at the median: the windowed value is a
  // fixed mix of both, so a tiny jitter moves it only a little.
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(1.0 + 0.001 * i);
    a.push_back(100.0 + 0.001 * i);
    b.push_back(1.0 + 0.001 * i * 1.01);
    b.push_back(100.0 + 0.001 * i * 1.01);
  }
  const double pa = percentile(a, 0, 1e9, 0.5), pb = percentile(b, 0, 1e9, 0.5);
  EXPECT_NEAR(pa, pb, 1e-3 * pa);
  EXPECT_GT(pa, 1.1);
  EXPECT_LT(pa, 99.0);
}

TEST(Median, EvenAndOdd) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

SpanRec span(std::uint64_t id, std::uint64_t parent, double start, double end) {
  SpanRec s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, NestedSpans) {
  // root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
  const std::vector<SpanRec> spans = {span(1, 0, 0, 10), span(2, 1, 1, 4),
                                      span(3, 2, 2, 3), span(4, 1, 5, 9)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 3 - 4);
  EXPECT_DOUBLE_EQ(self[1], 3 - 1);
  EXPECT_DOUBLE_EQ(self[2], 1);
  EXPECT_DOUBLE_EQ(self[3], 4);
}

TEST(SelfTime, OverlappingAndProtrudingChildren) {
  // Children on other threads overlap each other ([1,5] and [3,7] cover
  // [1,7]) and one sticks out of the parent ([8,12] counts only [8,10]).
  const std::vector<SpanRec> spans = {span(1, 0, 0, 10), span(2, 1, 1, 5),
                                      span(3, 1, 3, 7), span(4, 1, 8, 12)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 6 - 2);
  EXPECT_DOUBLE_EQ(self[1], 4);
  EXPECT_DOUBLE_EQ(self[2], 4);
}

TEST(SelfTime, FullyCoveredAndOrphans) {
  // A child covering its parent leaves zero self time; a span whose parent
  // was never recorded is treated as a root.
  const std::vector<SpanRec> spans = {span(1, 0, 0, 2), span(2, 1, 0, 2),
                                      span(3, 99, 5, 6)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(Tracer, CollectsFromEveryThreadWithParents) {
  Tracer tracer;
  {
    Span root{&tracer, "root", 0, 1};
    std::thread t([&] { Span child{&tracer, "child", root.id(), 1, "tag"}; });
    t.join();
  }
  const auto spans = tracer.collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].tag, "tag");
}

TEST(Digest, StableAndSensitive) {
  EXPECT_EQ(digest("1/2,3;"), digest("1/2,3;"));
  EXPECT_NE(digest("1/2,3;"), digest("1/2,4;"));
  EXPECT_EQ(digest("").size(), 32u);
}

}  // namespace
}  // namespace spivbench
