// Microbenchmark of the Step-3 overlapped-time algorithms (Figure 3).
//
// Compares the paper's verbatim algorithm against the clean sort-and-merge
// and the sharded parallel engine across record counts (serial vs parallel
// at 10^4..10^7 intervals, 1/2/4/8 threads), and validates the paper's
// overhead claim: "The complexity of the algorithm is O(nlog2n)" and "even
// for 65535 I/O operations, all the records need about 3 megabytes".
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "metrics/overlap.hpp"
#include "trace/io_record.hpp"

using namespace bpsio;

namespace {

std::vector<trace::TimeInterval> random_intervals(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::TimeInterval> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto start = static_cast<std::int64_t>(rng.uniform_u64(1'000'000'000));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(10'000'000));
    out.push_back({start, start + len});
  }
  return out;
}

void BM_OverlapPaper(benchmark::State& state) {
  const auto intervals =
      random_intervals(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    auto copy = intervals;
    benchmark::DoNotOptimize(metrics::overlap_time_paper(std::move(copy)));
  }
  state.SetComplexityN(state.range(0));
}

void BM_OverlapMerged(benchmark::State& state) {
  const auto intervals =
      random_intervals(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    auto copy = intervals;
    benchmark::DoNotOptimize(metrics::overlap_time_merged(std::move(copy)));
  }
  state.SetComplexityN(state.range(0));
}

void BM_OverlapParallel(benchmark::State& state) {
  const auto intervals =
      random_intervals(static_cast<std::size_t>(state.range(0)), 42);
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto copy = intervals;
    benchmark::DoNotOptimize(
        metrics::overlap_time_parallel(std::move(copy), pool));
  }
  state.SetComplexityN(state.range(0));
}

void BM_RecordFootprint(benchmark::State& state) {
  // The paper's space-overhead analysis, as a measurable fact: 65535
  // records at 32 bytes each.
  for (auto _ : state) {
    std::vector<trace::IoRecord> records(65535);
    benchmark::DoNotOptimize(records.data());
    state.counters["bytes"] = static_cast<double>(
        records.size() * sizeof(trace::IoRecord));
  }
}

}  // namespace

BENCHMARK(BM_OverlapPaper)->Range(1 << 10, 1 << 20)->Complexity();
BENCHMARK(BM_OverlapMerged)->Range(1 << 10, 1 << 20)->Complexity();
// The serial baselines the parallel engine is judged against (same sizes).
BENCHMARK(BM_OverlapMerged)
    ->Arg(10'000)->Arg(100'000)->Arg(1'000'000)->Arg(10'000'000);
// Sharded engine: {interval count} x {thread count}. threads=1 routes
// through the serial path (sanity anchor); the ≥2x target is the 10^7 row
// at 4 and 8 threads vs BM_OverlapMerged/10000000.
BENCHMARK(BM_OverlapParallel)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{10'000, 100'000, 1'000'000, 10'000'000}, {1, 2, 4, 8}});
BENCHMARK(BM_RecordFootprint);

BENCHMARK_MAIN();
