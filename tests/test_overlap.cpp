// Tests for Step 3 — the overlapped-I/O-time (interval union) algorithms.
// These are the heart of the BPS metric; the paper's Figure-2 example and a
// battery of edge cases are checked exactly, and a parameterized property
// sweep pits all three implementations against each other on random inputs.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "metrics/overlap.hpp"
#include "overlap_oracle.hpp"

namespace bpsio::metrics {
namespace {

using trace::TimeInterval;

std::int64_t paper_ns(std::vector<TimeInterval> v) {
  return overlap_time_paper(std::move(v)).ns();
}
std::int64_t merged_ns(std::vector<TimeInterval> v) {
  return overlap_time_merged(std::move(v)).ns();
}

TEST(Overlap, EmptyIsZero) {
  EXPECT_EQ(paper_ns({}), 0);
  EXPECT_EQ(merged_ns({}), 0);
  EXPECT_EQ(overlap_time_bruteforce({}).ns(), 0);
}

TEST(Overlap, SingleInterval) {
  const std::vector<TimeInterval> v{{10, 40}};
  EXPECT_EQ(paper_ns(v), 30);
  EXPECT_EQ(merged_ns(v), 30);
}

TEST(Overlap, PaperFigure2Example) {
  // R1 [0,4), R2 [1,2) contained, R3 [2,6) extends, idle [6,7), R4 [7,9).
  // T = dt1 + dt2 = 6 + 2 = 8 (in ms here, ns in the test).
  const std::vector<TimeInterval> v{{0, 4}, {1, 2}, {2, 6}, {7, 9}};
  EXPECT_EQ(paper_ns(v), 8);
  EXPECT_EQ(merged_ns(v), 8);
  EXPECT_EQ(overlap_time_bruteforce(v).ns(), 8);
}

TEST(Overlap, OrderDoesNotMatter) {
  const std::vector<TimeInterval> v{{7, 9}, {2, 6}, {0, 4}, {1, 2}};
  EXPECT_EQ(paper_ns(v), 8);
  EXPECT_EQ(merged_ns(v), 8);
}

TEST(Overlap, DisjointIntervalsSum) {
  const std::vector<TimeInterval> v{{0, 1}, {10, 12}, {20, 23}};
  EXPECT_EQ(paper_ns(v), 6);
  EXPECT_EQ(merged_ns(v), 6);
}

TEST(Overlap, IdenticalIntervalsCountOnce) {
  const std::vector<TimeInterval> v{{5, 15}, {5, 15}, {5, 15}};
  EXPECT_EQ(paper_ns(v), 10);
  EXPECT_EQ(merged_ns(v), 10);
}

TEST(Overlap, TouchingIntervalsMerge) {
  // [0,5) and [5,10) share only a boundary: the union measure is 10 and
  // there is no idle gap between them.
  const std::vector<TimeInterval> v{{0, 5}, {5, 10}};
  EXPECT_EQ(paper_ns(v), 10);
  EXPECT_EQ(merged_ns(v), 10);
  EXPECT_EQ(idle_time(v).ns(), 0);
}

TEST(Overlap, FullContainmentChain) {
  const std::vector<TimeInterval> v{{0, 100}, {10, 20}, {15, 18}, {90, 95}};
  EXPECT_EQ(paper_ns(v), 100);
  EXPECT_EQ(merged_ns(v), 100);
}

TEST(Overlap, ZeroLengthIntervalsContributeNothing) {
  const std::vector<TimeInterval> v{{5, 5}, {7, 7}, {10, 20}};
  EXPECT_EQ(paper_ns(v), 10);
  EXPECT_EQ(merged_ns(v), 10);
  EXPECT_EQ(overlap_time_bruteforce(v).ns(), 10);
}

TEST(Overlap, MergeIntervalsReturnsDisjointSortedRuns) {
  const auto runs = merge_intervals({{7, 9}, {0, 4}, {2, 6}, {1, 2}});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (TimeInterval{0, 6}));
  EXPECT_EQ(runs[1], (TimeInterval{7, 9}));
}

TEST(Overlap, MergeIntervalsMatchesReferenceLoopOnEdgeShapes) {
  const std::vector<std::vector<TimeInterval>> shapes = {
      {},
      {{5, 5}},                                   // zero-length alone
      {{5, 5}, {5, 5}, {9, 9}},                   // repeated zero-length
      {{0, 10}, {4, 4}},                          // zero-length inside
      {{0, 10}, {10, 10}, {10, 12}},              // zero-length at a seam
      {{3, 3}, {0, 3}},                           // zero-length at an end
      {{0, 2}, {2, 4}, {4, 6}},                   // touching chain
      {{4, 6}, {0, 2}, {2, 4}},                   // touching, unsorted
      {{0, 100}, {10, 20}, {30, 40}, {0, 100}},   // nested and identical
      {{0, 100}, {10, 200}, {150, 160}},          // nested in the extension
      {{-50, -10}, {-10, 0}, {1, 2}},             // negative times
      {{0, 1}, {2, 3}, {4, 5}},                   // disjoint
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto runs = merge_intervals(shapes[i]);
    EXPECT_EQ(runs, merge_intervals_reference(shapes[i])) << "shape " << i;
    std::int64_t total = 0;
    for (const auto& r : runs) total += r.end_ns - r.start_ns;
    EXPECT_EQ(merged_ns(shapes[i]), total) << "shape " << i;
  }
}

TEST(Overlap, WindowedClipsAndExcludes) {
  const std::vector<TimeInterval> v{{0, 10}, {20, 30}};
  EXPECT_EQ(overlap_time_windowed(v, 5, 25).ns(), 10);  // [5,10) + [20,25)
  EXPECT_EQ(overlap_time_windowed(v, 12, 18).ns(), 0);
  EXPECT_EQ(overlap_time_windowed(v, 0, 100).ns(), 20);
}

TEST(Overlap, WindowedEmptyAndInvertedWindows) {
  const std::vector<TimeInterval> v{{0, 10}, {20, 30}};
  // Empty window: start == end selects nothing, even on an interval boundary.
  EXPECT_EQ(overlap_time_windowed(v, 5, 5).ns(), 0);
  EXPECT_EQ(overlap_time_windowed(v, 0, 0).ns(), 0);
  EXPECT_EQ(overlap_time_windowed(v, 20, 20).ns(), 0);
  // Inverted window (start > end): nothing can satisfy s < e after clipping.
  EXPECT_EQ(overlap_time_windowed(v, 25, 5).ns(), 0);
  EXPECT_EQ(overlap_time_windowed(v, 100, -100).ns(), 0);
  // Window entirely outside the data on either side.
  EXPECT_EQ(overlap_time_windowed(v, -50, -10).ns(), 0);
  EXPECT_EQ(overlap_time_windowed(v, 40, 90).ns(), 0);
  // Empty input with any window.
  EXPECT_EQ(overlap_time_windowed({}, 0, 100).ns(), 0);
  EXPECT_EQ(overlap_time_windowed({}, 100, 0).ns(), 0);
}

TEST(Overlap, IdleTime) {
  EXPECT_EQ(idle_time({{0, 4}, {1, 2}, {2, 6}, {7, 9}}).ns(), 1);
  EXPECT_EQ(idle_time({}).ns(), 0);
  EXPECT_EQ(idle_time({{3, 8}}).ns(), 0);
}

TEST(Overlap, PeakConcurrency) {
  EXPECT_EQ(peak_concurrency({}), 0u);
  EXPECT_EQ(peak_concurrency({{0, 10}}), 1u);
  EXPECT_EQ(peak_concurrency({{0, 10}, {5, 15}, {8, 9}}), 3u);
  // Back-to-back intervals never overlap.
  EXPECT_EQ(peak_concurrency({{0, 5}, {5, 10}}), 1u);
  // Zero-length intervals are ignored.
  EXPECT_EQ(peak_concurrency({{3, 3}, {3, 3}}), 0u);
}

TEST(Overlap, AverageConcurrency) {
  // Two fully-overlapping unit intervals: total 2 over union 1.
  EXPECT_DOUBLE_EQ(average_concurrency({{0, 10}, {0, 10}}), 2.0);
  EXPECT_DOUBLE_EQ(average_concurrency({{0, 10}}), 1.0);
  EXPECT_DOUBLE_EQ(average_concurrency({}), 0.0);
}

// ---------------------------------------------------------------------------
// Property sweep: all three implementations agree on random interval sets,
// and the union measure obeys basic bounds.
// ---------------------------------------------------------------------------
class OverlapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapProperty, ImplementationsAgreeOnRandomInput) {
  Rng rng(GetParam());
  const int n = 1 + static_cast<int>(rng.uniform_u64(200));
  std::vector<TimeInterval> v;
  std::int64_t sum = 0, lo = INT64_MAX, hi = 0;
  for (int i = 0; i < n; ++i) {
    const auto start = static_cast<std::int64_t>(rng.uniform_u64(1000));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(100));
    v.push_back({start, start + len});
    sum += len;
    lo = std::min(lo, start);
    hi = std::max(hi, start + len);
  }
  const auto t_paper = paper_ns(v);
  const auto t_merged = merged_ns(v);
  const auto t_brute = overlap_time_bruteforce(v).ns();
  EXPECT_EQ(t_paper, t_merged);
  EXPECT_EQ(t_merged, t_brute);
  // Bounds: union <= sum of lengths; union <= span; union >= longest interval.
  EXPECT_LE(t_merged, sum);
  EXPECT_LE(t_merged, hi - lo);
  std::int64_t longest = 0;
  for (const auto& iv : v) longest = std::max(longest, iv.end_ns - iv.start_ns);
  EXPECT_GE(t_merged, longest);
  // Union + idle = span.
  EXPECT_EQ(t_merged + idle_time(v).ns(), hi - lo);
}

TEST_P(OverlapProperty, MergeIntervalsMatchesReferenceLoop) {
  // Random sets with zero-length, touching, nested and repeated intervals:
  // short lengths on a coarse grid make every shape common.
  Rng rng(GetParam() ^ 0x5eed);
  const int n = 1 + static_cast<int>(rng.uniform_u64(200));
  std::vector<TimeInterval> v;
  for (int i = 0; i < n; ++i) {
    const auto start = static_cast<std::int64_t>(rng.uniform_u64(100)) * 4;
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(5)) * 4;
    v.push_back({start, start + len});
  }
  const auto reference = merge_intervals_reference(v);
  EXPECT_EQ(merge_intervals(v), reference);
  std::int64_t total = 0;
  for (const auto& r : reference) total += r.end_ns - r.start_ns;
  EXPECT_EQ(merged_ns(v), total);
}

TEST_P(OverlapProperty, UnionIsMonotoneUnderAddingIntervals) {
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<TimeInterval> v;
  std::int64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    const auto start = static_cast<std::int64_t>(rng.uniform_u64(500));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(50));
    v.push_back({start, start + len});
    const auto cur = merged_ns(v);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OverlapProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace bpsio::metrics
