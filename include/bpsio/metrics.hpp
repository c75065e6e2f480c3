// Public facade: the BPS metric pipeline.
//
// Stable entry points re-exported here:
//   * metrics::measure_stream / MetricPipeline / MetricSample — one pass
//     over a trace::RecordSource computing B, T, BPS, IOPS, BW, ARPT
//                                          (metrics/pipeline.hpp)
//   * metrics::overlap_time_paper — the Figure-3 interval-union T, the
//     reference OverlapConsumer's T is tested against
//                                          (metrics/overlap.hpp)
//   * metrics::OnlineBpsCounter / SlidingWindowMetrics — O(state) live
//     counters                             (metrics/online.hpp)
//   * metrics::TimelineConsumer / Timeline — windowed BPS timelines
//                                          (metrics/timeline.hpp)
//
// See docs/API.md for the stability policy.
#pragma once

#include "metrics/online.hpp"
#include "metrics/overlap.hpp"
#include "metrics/pipeline.hpp"
#include "metrics/timeline.hpp"
