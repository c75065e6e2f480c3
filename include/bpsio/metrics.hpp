// Public facade: the BPS metric pipeline.
//
// Stable entry points re-exported here:
//   * metrics::measure_stream / MetricPipeline / MetricSample — one pass
//     over an ordered trace::RecordSource computing B, T, BPS, IOPS, BW,
//     ARPT and peak concurrency; every run checks the order
//                                          (metrics/pipeline.hpp)
//   * metrics::overlap_time_paper — the Figure-3 interval-union T, the
//     reference OverlapConsumer's T is tested against; overlap_time_merged
//     and merge_intervals run the library's one union rule, IntervalUnion,
//     over a sorted copy                   (metrics/overlap.hpp)
//   * metrics::SlidingWindowMetrics — the live daemons' windowed counters
//                                          (metrics/online.hpp)
//   * metrics::TimelineConsumer / Timeline / build_timeline — windowed BPS
//     timelines, at most kMaxTimelineWindows windows
//                                          (metrics/timeline.hpp)
//
// See docs/API.md for the stability policy.
#pragma once

#include "metrics/online.hpp"
#include "metrics/overlap.hpp"
#include "metrics/pipeline.hpp"
#include "metrics/timeline.hpp"
