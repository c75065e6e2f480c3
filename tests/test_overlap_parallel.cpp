// Property-based differential tests for the sharded overlap engine.
//
// The paper ships its own oracle: three agreeing union implementations
// (Figure-3 verbatim, sort-and-merge, O(n^2) brute force). The sharded
// engine must match all of them exactly — not approximately — on every
// input shape we can generate, at every pool width.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "metrics/overlap.hpp"
#include "overlap_oracle.hpp"

namespace bpsio::metrics {
namespace {

using trace::TimeInterval;

// One random interval set. Density knobs widen from "everything overlaps"
// to "mostly disjoint"; degenerate shapes (zero-length, duplicate
// timestamps) are mixed in at a fixed rate.
std::vector<TimeInterval> random_set(Rng& rng, std::size_t count,
                                     std::int64_t time_range,
                                     std::int64_t max_len) {
  std::vector<TimeInterval> v;
  v.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(time_range)));
    std::int64_t len = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(max_len)));
    if (rng.uniform() < 0.1) len = 0;  // zero-length interval
    v.push_back({start, start + len});
    if (rng.uniform() < 0.15 && !v.empty()) {
      // Duplicate timestamps: reuse an existing start and/or whole interval.
      const auto& prev = v[rng.uniform_u64(v.size())];
      if (rng.uniform() < 0.5) {
        v.push_back(prev);  // exact duplicate
      } else {
        v.push_back({prev.start_ns, prev.start_ns + len});
      }
    }
  }
  return v;
}

// ThreadPool unit behavior the differential layer leans on.
TEST(ThreadPool, InlineWhenSingleThreaded) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int calls = 0;
  pool.run_all({[&] { ++calls; }, [&] { ++calls; }});
  EXPECT_EQ(calls, 2);
}

TEST(ThreadPool, RunAllRunsEveryTaskOnce) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<int> hits(1000, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i] { ++hits[i]; });
    }
    pool.run_all(std::move(tasks));
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(hits.size()))
        << "threads=" << threads;
  }
}

TEST(ThreadPool, ZeroResolvesToHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(OverlapParallel, EmptyInput) {
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    EXPECT_EQ(overlap_time_parallel({}, threads).ns(), 0);
  }
}

TEST(OverlapParallel, PaperFigure2Example) {
  const std::vector<TimeInterval> v{{0, 4}, {1, 2}, {2, 6}, {7, 9}};
  ThreadPool pool(4);
  EXPECT_EQ(overlap_time_parallel(v, pool).ns(), 8);
}

// The tentpole property: on thousands of seeded-random interval sets,
// overlap_time_parallel at 1..8 threads equals merged, paper, and (on sets
// small enough for O(n^2)) brute force — exactly.
class OverlapParallelProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapParallelProperty, AllImplementationsAgree) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  // Shared pools so 8 threads x dozens of sets stays cheap.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (std::size_t t = 1; t <= 8; ++t) {
    pools.push_back(std::make_unique<ThreadPool>(t));
  }
  for (int round = 0; round < 60; ++round) {
    const std::size_t count = rng.uniform_u64(240);  // includes empty sets
    // Density sweep: tight ranges force heavy overlap, wide ranges gaps.
    const std::int64_t range = 1 + static_cast<std::int64_t>(
        rng.uniform_u64(1'000'000));
    const std::int64_t max_len =
        1 + static_cast<std::int64_t>(rng.uniform_u64(10'000));
    const auto v = random_set(rng, count, range, max_len);

    const auto expected = overlap_time_merged(v).ns();
    EXPECT_EQ(overlap_time_paper(v).ns(), expected);
    EXPECT_EQ(overlap_time_bruteforce(v).ns(), expected);
    for (auto& pool : pools) {
      EXPECT_EQ(overlap_time_parallel(v, *pool).ns(), expected)
          << "threads=" << pool->size() << " count=" << v.size()
          << " range=" << range;
    }
  }
}

// Large sets cross the sharded engine's serial-fallback cutoff, so the
// k-way merge path itself is exercised (brute force sits this one out).
TEST_P(OverlapParallelProperty, ShardedPathMatchesOnLargeSets) {
  Rng rng(GetParam() ^ 0x5eedULL);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (std::size_t t : {2u, 3u, 5u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(t));
  }
  const std::size_t count = 20'000 + rng.uniform_u64(20'000);
  const auto dense = random_set(rng, count, 500'000, 2'000);
  const auto sparse = random_set(rng, count, 1'000'000'000, 100);
  for (const auto& v : {dense, sparse}) {
    const auto expected = overlap_time_merged(v).ns();
    EXPECT_EQ(overlap_time_paper(v).ns(), expected);
    for (auto& pool : pools) {
      EXPECT_EQ(overlap_time_parallel(v, *pool).ns(), expected)
          << "threads=" << pool->size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OverlapParallelProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace bpsio::metrics
