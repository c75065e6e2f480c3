// The peak-concurrency sweep alone: metrics::PeakConcurrency (lazy
// retirement, what OverlapConsumer runs) against a metrics::PendingEnds heap
// with a pop per retired end and a push per record (what OverlapConsumer ran
// before, and what ConcurrencyProfileConsumer still runs), over the same
// intervals in memory.
//
//   bench_peak_sweep [--records=N] [--rounds=R] [trace.bpstrace...]
//
// With trace files the stream is their merge, as bpsio_report reads them.
// Without, the streams are closed loops at queue depths 1 to 4096, then
// each zoo scenario's simulated run on the SSD and the HDD testbed (scale
// 1, seed 42). In a closed loop each of `depth` slots issues its next
// access where its previous one ended, with lengths uniform in 1-101 us,
// so the open count sits at the depth and the lazy sweep retires on nearly
// every record. Each round times both sweeps, alternating which goes
// first, and the fastest round of each counts. Prints ns/record for both,
// their ratio, the records per lazy retirement and the retirements that
// spilled the buffer into the heap. Exits 1 when the two sweeps find
// different peaks.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "metrics/pipeline.hpp"
#include "tools/cli.hpp"
#include "trace/mapped_source.hpp"
#include "trace/record_source.hpp"
#include "workload/registry.hpp"
#include "workload/zoo/zoo.hpp"

using namespace bpsio;

namespace {

struct Interval {
  std::int64_t start;
  std::int64_t end;
};

std::size_t heap_peak(std::span<const Interval> intervals) {
  metrics::PendingEnds ends;
  std::size_t peak = 0;
  for (const Interval& i : intervals) {
    while (!ends.empty() && ends.top() <= i.start) ends.pop();
    ends.push(i.end);
    peak = std::max(peak, ends.size());
  }
  return peak;
}

metrics::PeakConcurrency lazy_peak(std::span<const Interval> intervals) {
  metrics::PeakConcurrency peak;
  for (const Interval& i : intervals) peak.add(i.start, i.end);
  return peak;
}

/// `records` intervals of a closed loop at `depth`, in (start, end) order.
std::vector<Interval> closed_loop(std::size_t depth, std::size_t records,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> length(1'000, 101'000);
  // Slots by the time they issue next.
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>>
      next(std::greater<>{}, std::vector<std::int64_t>(depth, 0));
  std::vector<Interval> out;
  out.reserve(records);
  while (out.size() < records) {
    const std::int64_t start = next.top();
    next.pop();
    const std::int64_t end = start + length(rng);
    out.push_back({start, end});
    next.push(end);
  }
  std::sort(out.begin(), out.end(), [](const Interval& a, const Interval& b) {
    return std::make_pair(a.start, a.end) < std::make_pair(b.start, b.end);
  });
  return out;
}

/// The intervals OverlapConsumer sweeps: the stream's records of nonzero
/// length.
Result<std::vector<Interval>> intervals_of(trace::RecordSource& source) {
  trace::OrderCheck order;
  std::vector<Interval> out;
  out.reserve(source.size_hint().value_or(0));
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    if (Status checked = order.check(chunk); !checked.ok()) {
      return checked.error();
    }
    for (const trace::IoRecord& r : chunk) {
      if (r.end_ns > r.start_ns) out.push_back({r.start_ns, r.end_ns});
    }
  }
  if (!source.status().ok()) return source.status().error();
  return out;
}

Result<std::vector<Interval>> trace_intervals(
    const std::vector<std::string>& paths) {
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  for (const std::string& path : paths) {
    auto source = trace::open_trace_source(path);
    if (!source->status().ok()) return source->status().error();
    children.push_back(std::move(source));
  }
  trace::MergedSource merged(std::move(children));
  return intervals_of(merged);
}

/// The records of zoo scenario `name`'s simulated run: its processes
/// replay their plans as closed loops.
Result<std::vector<Interval>> zoo_intervals(const std::string& name,
                                            const core::TestbedConfig& config) {
  auto wl = workload::make_workload("zoo." + name, workload::Params{});
  if (!wl.ok()) return wl.error();
  core::Testbed testbed(config);
  testbed.drop_caches();
  const workload::RunResult run = (*wl)->run(testbed.env());
  trace::VectorSource source = trace::collector_source(run.collector);
  return intervals_of(source);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times both sweeps over `intervals` and adds the stream's row to `table`;
/// false when their peaks differ.
bool measure(const std::string& name, std::span<const Interval> intervals,
             long long rounds, TextTable& table) {
  double heap_s = std::numeric_limits<double>::infinity();
  double lazy_s = heap_s;
  std::size_t heap = 0;
  metrics::PeakConcurrency lazy;
  for (long long round = 0; round < rounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      const auto t0 = std::chrono::steady_clock::now();
      if ((side == 0) == (round % 2 == 0)) {
        heap = heap_peak(intervals);
        heap_s = std::min(heap_s, seconds_since(t0));
      } else {
        lazy = lazy_peak(intervals);
        lazy_s = std::min(lazy_s, seconds_since(t0));
      }
    }
  }
  const auto n = static_cast<double>(std::max<std::size_t>(intervals.size(), 1));
  const double per_retirement =
      lazy.retirements() > 0
          ? n / static_cast<double>(lazy.retirements())
          : std::numeric_limits<double>::infinity();
  table.add_row({name, std::to_string(intervals.size()), std::to_string(heap),
                 fmt_double(heap_s / n * 1e9, 1),
                 fmt_double(lazy_s / n * 1e9, 1),
                 fmt_double(lazy_s / heap_s, 2), fmt_double(per_retirement, 1),
                 std::to_string(lazy.spills())});
  if (heap != lazy.peak()) {
    std::fprintf(stderr, "FAIL: %s: the heap's peak is %zu, the lazy one %zu\n",
                 name.c_str(), heap, lazy.peak());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long long records = 2'000'000;
  long long rounds = 9;
  cli::ArgParser parser(
      "bench_peak_sweep",
      "Peak-concurrency sweep alone: lazy retirement against a heap, over "
      "trace files, or closed loops at queue depths 1 to 4096 and the zoo's "
      "simulated runs.");
  parser.positionals("[trace.bpstrace...]");
  parser.add_int("--records", &records, 1, 1'000'000'000, "N",
                 "records per closed loop (default 2000000)");
  parser.add_int("--rounds", &rounds, 1, 1000, "R",
                 "timed rounds per sweep; the fastest counts (default 9)");
  std::vector<std::string> paths;
  switch (parser.parse(argc, argv, paths)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  TextTable table({"stream", "intervals", "peak", "heap ns/rec",
                   "lazy ns/rec", "lazy/heap", "rec/retirement", "spills"});
  bool same = true;
  if (!paths.empty()) {
    const auto intervals = trace_intervals(paths);
    if (!intervals.ok()) {
      std::fprintf(stderr, "bench_peak_sweep: %s\n",
                   intervals.error().to_string().c_str());
      return 1;
    }
    same = measure(std::to_string(paths.size()) + " trace files", *intervals,
                   rounds, table);
  } else {
    for (const std::size_t depth :
         {1, 2, 4, 16, 64, 256, 512, 1024, 4096}) {
      const auto loop = closed_loop(depth, static_cast<std::size_t>(records),
                                    /*seed=*/depth);
      same &= measure("closed loop, depth " + std::to_string(depth), loop,
                      rounds, table);
    }
    for (const bool hdd : {false, true}) {
      const core::TestbedConfig config =
          hdd ? core::local_hdd_testbed() : core::local_ssd_testbed();
      for (const workload::zoo::ScenarioInfo& info :
           workload::zoo::scenarios()) {
        const auto intervals = zoo_intervals(info.name, config);
        if (!intervals.ok()) {
          std::fprintf(stderr, "bench_peak_sweep: %s: %s\n", info.name.c_str(),
                       intervals.error().to_string().c_str());
          return 1;
        }
        same &= measure(std::string("zoo ") + info.name +
                            (hdd ? " (hdd)" : " (ssd)"),
                        *intervals, rounds, table);
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  return same ? 0 : 1;
}
