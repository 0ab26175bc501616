// Unit tests of the benchmark's own arithmetic.
//
//   cmake --build .bench_build/rosebench --target rosebench_test
//   ctest --test-dir .bench_build/rosebench
#include "rosebench/stats.h"

#include <gtest/gtest.h>

namespace rosebench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> out;
  for (int i = 1; i <= n; i++) {
    out.push_back(i);
  }
  return out;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> sorted = Iota(10);
  EXPECT_EQ(NearestRank(sorted, 50), 5);
  EXPECT_EQ(NearestRank(sorted, 90), 9);
  EXPECT_EQ(NearestRank(sorted, 100), 10);
  EXPECT_EQ(NearestRank(sorted, 0), 1);
  EXPECT_EQ(SamplesBeyond(10, 50), 5u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(100, 95), 5u);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
  Summary s = Summarize(Iota(100));
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.tail_percentile, 90);
  EXPECT_EQ(s.tail, 90);

  // 1000 samples reach p99 (10 beyond), not p99.9 (1 beyond).
  s = Summarize(Iota(1000));
  EXPECT_EQ(s.tail_percentile, 99);
  EXPECT_EQ(s.tail, 990);

  // 40 samples: p75 leaves 10 beyond; p90 would leave 4.
  s = Summarize(Iota(40));
  EXPECT_EQ(s.tail_percentile, 75);
  EXPECT_EQ(s.tail, 30);

  // Too few samples for any rung: the tail falls back to the median.
  s = Summarize(Iota(15));
  EXPECT_EQ(s.tail_percentile, 50);
  EXPECT_EQ(s.tail, s.p50);
}

TEST(PercentileTest, UnsortedInputAndEmpty) {
  Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(s.p50, 3);
  s = Summarize({});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.p50, 0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(ArrivalScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = ArrivalSchedule(7, 20, 10);
  const std::vector<double> b = ArrivalSchedule(7, 20, 10);
  const std::vector<double> c = ArrivalSchedule(8, 20, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ArrivalScheduleTest, FixedRateWithBoundedGaps) {
  const double rate = 20;
  const std::vector<double> due = ArrivalSchedule(3, rate, 50);
  // About rate * seconds arrivals, ascending, inside the window, and every
  // gap within [0.5, 1.5) of the mean gap.
  EXPECT_GT(due.size(), 900u);
  EXPECT_LT(due.size(), 1100u);
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), 50);
  for (size_t i = 1; i < due.size(); i++) {
    const double gap = due[i] - due[i - 1];
    EXPECT_GE(gap, 0.5 / rate - 1e-12);
    EXPECT_LT(gap, 1.5 / rate + 1e-12);
  }
}

TEST(SpanTest, SelfTimeSubtractsChildren) {
  const std::vector<Span> spans = {
      {"root", 0, -1, 0, 100},
      {"a", 0, 0, 10, 30},
      {"b", 0, 0, 50, 60},
      {"a.child", 0, 1, 15, 20},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70);  // 100 - 20 - 10
  EXPECT_EQ(self[1], 15);  // 20 - 5
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 5);
}

TEST(SpanTest, ConcurrentChildrenCountOnce) {
  // Two workers' runs overlap inside the engine span: the covered part is
  // their union (20..80), not the sum of their lengths.
  const std::vector<Span> spans = {
      {"diagnose", 1, -1, 0, 100},
      {"harness.run", 1, 0, 20, 70},
      {"harness.run", 1, 0, 30, 80},
      {"harness.run", 1, 0, 90, 130},  // Clipped to the parent's end.
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
}

TEST(SpanTest, SelfTimeByNameFiltersBySubtree) {
  const std::vector<Span> spans = {
      {"pass", 0, -1, 0, 100},     {"diagnose", 0, 0, 0, 40},
      {"pass", 1, -1, 200, 300},   {"diagnose", 1, 2, 200, 290},
      {"harness.run", 1, 3, 210, 260},
  };
  std::map<std::string, int64_t> first = SelfTimeByName(spans, 0);
  EXPECT_EQ(first["pass"], 60);
  EXPECT_EQ(first["diagnose"], 40);
  EXPECT_EQ(first.count("harness.run"), 0u);
  std::map<std::string, int64_t> second = SelfTimeByName(spans, 2);
  EXPECT_EQ(second["diagnose"], 40);
  EXPECT_EQ(second["harness.run"], 50);
  std::map<std::string, int64_t> all = SelfTimeByName(spans);
  EXPECT_EQ(all["diagnose"], 80);
}

TEST(SpanRecorderTest, RecordsParentsAndIds) {
  SpanRecorder recorder;
  const int root = recorder.Begin("serve.request", 7, -1);
  const int child = recorder.Add("serve.admit", 7, root, 1, 2);
  recorder.End(root);
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[static_cast<size_t>(child)].parent, root);
  EXPECT_EQ(spans[static_cast<size_t>(child)].id, 7u);
  EXPECT_GE(spans[static_cast<size_t>(root)].end_ns, spans[static_cast<size_t>(root)].start_ns);
}

TEST(SpeedFactorTest, ScalesByTheMedianBlock) {
  EXPECT_EQ(SpeedFactor({}, 2.0), 1.0);
  // Blocks taking twice the reference time halve the factor; an outlier
  // block does not move the median.
  EXPECT_EQ(SpeedFactor({4.0, 4.0, 100.0}, 2.0), 0.5);
  EXPECT_EQ(SpeedFactor({1.0, 3.0, 2.0}, 2.0), 1.0);
  EXPECT_GT(ReferenceBlockMs(), 0.0);
  EXPECT_GT(ReferenceBlockMs(2), 0.0);
}

TEST(SpeedFactorTest, LocalWindowIsClipped) {
  const std::vector<double> blocks = {1, 1, 1, 4, 4, 4, 4};
  EXPECT_EQ(LocalSpeedFactor(blocks, 0, 2, 2.0), 2.0);   // {1, 1, 1}
  EXPECT_EQ(LocalSpeedFactor(blocks, 5, 2, 2.0), 0.5);   // {4, 4, 4, 4}
  EXPECT_EQ(LocalSpeedFactor(blocks, 3, 1, 2.0), 0.5);   // {1, 4, 4}
  EXPECT_EQ(LocalSpeedFactor(blocks, 99, 1, 2.0), 0.5);  // Past the end: the last blocks.
  EXPECT_EQ(LocalSpeedFactor({}, 0, 2, 2.0), 1.0);
}

TEST(ClassifyTest, HitOnlyForCacheHits) {
  EXPECT_EQ(ClassifyAccept(rose::AcceptKind::kCacheHit), RequestClass::kHit);
  EXPECT_EQ(ClassifyAccept(rose::AcceptKind::kQueued), RequestClass::kMiss);
  EXPECT_EQ(ClassifyAccept(rose::AcceptKind::kCoalesced), RequestClass::kMiss);
}

}  // namespace
}  // namespace rosebench
