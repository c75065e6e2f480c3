// Reference unions and concurrency sweeps for the overlap tests.
//
// Slow and simple on purpose: the tests check the library's T (the
// streaming OverlapConsumer and the Figure-3 transcription in
// metrics/overlap.hpp) and its concurrency figures against these, never
// the other way round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "metrics/overlap.hpp"

namespace bpsio::metrics {

/// O(n²) reference: for each interval, measure the part not covered by any
/// earlier interval, via pairwise subtraction.
inline SimDuration overlap_time_bruteforce(
    const std::vector<TimeInterval>& col_time) {
  // For interval i, count only the portion of [start_i, end_i) not covered
  // by any interval j < i. Subtract overlaps segment by segment.
  std::int64_t T = 0;
  for (std::size_t i = 0; i < col_time.size(); ++i) {
    // Collect the parts of interval i already covered by earlier intervals.
    std::vector<TimeInterval> uncovered{col_time[i]};
    if (uncovered.back().end_ns <= uncovered.back().start_ns) continue;
    for (std::size_t j = 0; j < i && !uncovered.empty(); ++j) {
      std::vector<TimeInterval> next;
      for (const auto& seg : uncovered) {
        const std::int64_t s = std::max(seg.start_ns, col_time[j].start_ns);
        const std::int64_t e = std::min(seg.end_ns, col_time[j].end_ns);
        if (s >= e) {
          next.push_back(seg);  // no overlap with j
          continue;
        }
        if (seg.start_ns < s) next.push_back({seg.start_ns, s});
        if (e < seg.end_ns) next.push_back({e, seg.end_ns});
      }
      uncovered = std::move(next);
    }
    for (const auto& seg : uncovered) T += seg.end_ns - seg.start_ns;
  }
  return SimDuration(T);
}

/// The disjoint union runs, by the plain sort-and-extend loop: sort by
/// (start, end), then extend the last run while the next interval starts at
/// or before its end (touching intervals merge; a zero-length interval
/// apart from every other is a run of its own).
inline std::vector<TimeInterval> merge_intervals_reference(
    std::vector<TimeInterval> col_time) {
  std::vector<TimeInterval> merged;
  if (col_time.empty()) return merged;
  std::sort(col_time.begin(), col_time.end(),
            [](const TimeInterval& a, const TimeInterval& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns < b.end_ns;
            });
  merged.push_back(col_time.front());
  for (std::size_t i = 1; i < col_time.size(); ++i) {
    const TimeInterval& next = col_time[i];
    TimeInterval& cur = merged.back();
    if (next.start_ns <= cur.end_ns) {
      cur.end_ns = std::max(cur.end_ns, next.end_ns);
    } else {
      merged.push_back(next);
    }
  }
  return merged;
}

/// Union measure restricted to a window [w_start, w_end).
inline SimDuration overlap_time_windowed(
    const std::vector<TimeInterval>& col_time, std::int64_t window_start_ns,
    std::int64_t window_end_ns) {
  std::vector<TimeInterval> clipped;
  clipped.reserve(col_time.size());
  for (const auto& iv : col_time) {
    const std::int64_t s = std::max(iv.start_ns, window_start_ns);
    const std::int64_t e = std::min(iv.end_ns, window_end_ns);
    if (s < e) clipped.push_back({s, e});
  }
  return overlap_time_merged(std::move(clipped));
}

/// Maximum number of simultaneously-active intervals (peak I/O concurrency),
/// by a sweep over the sorted boundary events. Zero-length intervals
/// contribute no measure, so end events at time t come before starts at t.
inline std::size_t peak_concurrency(const std::vector<TimeInterval>& col_time) {
  std::vector<std::pair<std::int64_t, int>> events;
  events.reserve(col_time.size() * 2);
  for (const auto& iv : col_time) {
    if (iv.end_ns <= iv.start_ns) continue;
    events.emplace_back(iv.start_ns, +1);
    events.emplace_back(iv.end_ns, -1);
  }
  std::sort(events.begin(), events.end());  // -1 before +1 at the same time
  std::size_t active = 0, peak = 0;
  for (const auto& [t, delta] : events) {
    (void)t;
    if (delta > 0) {
      ++active;
      peak = std::max(peak, active);
    } else {
      --active;
    }
  }
  return peak;
}

/// Average concurrency over busy time: sum(lengths) / union. 0 if union is 0.
inline double average_concurrency(const std::vector<TimeInterval>& col_time) {
  std::int64_t total = 0;
  for (const auto& iv : col_time) {
    if (iv.end_ns > iv.start_ns) total += iv.end_ns - iv.start_ns;
  }
  const auto uni = overlap_time_merged(col_time);
  if (uni.ns() <= 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(uni.ns());
}

}  // namespace bpsio::metrics
