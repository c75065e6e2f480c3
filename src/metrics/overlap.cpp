#include "metrics/overlap.hpp"

#include <algorithm>

#include "metrics/interval_union.hpp"

namespace bpsio::metrics {

namespace {

void sort_by_start(std::vector<TimeInterval>& v) {
  std::sort(v.begin(), v.end(), [](const TimeInterval& a, const TimeInterval& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns < b.end_ns;
  });
}

}  // namespace

SimDuration overlap_time_paper(std::vector<TimeInterval> col_time) {
  if (col_time.empty()) return SimDuration::zero();

  // "sort all records in col_time according to the start time of each record"
  sort_by_start(col_time);

  // Figure 3, transcribed. tempRecord carries the growing merged interval;
  // when the next record is disjoint, the finished interval's length is
  // accumulated into T (the pseudocode writes "T = ..." for both
  // accumulation sites, but the worked example in Figure 2 — T = dt1 + dt2 —
  // makes clear the intent is accumulation).
  std::int64_t T = 0;
  TimeInterval tempRecord = col_time.front();
  for (std::size_t i = 1; i < col_time.size(); ++i) {
    TimeInterval nextRecord = col_time[i];
    if (tempRecord.end_ns < nextRecord.start_ns) {
      T += tempRecord.end_ns - tempRecord.start_ns;
    } else {
      nextRecord.start_ns = tempRecord.start_ns;
      if (nextRecord.end_ns < tempRecord.end_ns) {
        nextRecord.end_ns = tempRecord.end_ns;
      }
    }
    tempRecord = nextRecord;
  }
  T += tempRecord.end_ns - tempRecord.start_ns;
  return SimDuration(T);
}

std::vector<TimeInterval> merge_intervals(std::vector<TimeInterval> col_time) {
  sort_by_start(col_time);
  std::vector<TimeInterval> merged;
  IntervalUnion runs([&merged](std::int64_t start_ns, std::int64_t end_ns) {
    merged.push_back({start_ns, end_ns});
  });
  for (const auto& iv : col_time) runs.add(iv.start_ns, iv.end_ns);
  runs.finish();
  return merged;
}

SimDuration overlap_time_merged(std::vector<TimeInterval> col_time) {
  sort_by_start(col_time);
  IntervalUnion<> busy;
  for (const auto& iv : col_time) busy.add(iv.start_ns, iv.end_ns);
  busy.finish();
  return SimDuration(busy.busy_ns());
}

SimDuration idle_time(const std::vector<TimeInterval>& col_time) {
  if (col_time.empty()) return SimDuration::zero();
  std::int64_t lo = col_time.front().start_ns;
  std::int64_t hi = col_time.front().end_ns;
  for (const auto& iv : col_time) {
    lo = std::min(lo, iv.start_ns);
    hi = std::max(hi, iv.end_ns);
  }
  return SimDuration(hi - lo) - overlap_time_merged(col_time);
}

}  // namespace bpsio::metrics
