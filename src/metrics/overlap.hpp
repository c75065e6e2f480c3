// Overlapped I/O time computation — Step 3 of the BPS methodology (Figure 3).
//
// T in the BPS equation is the measure of the union of all I/O access
// intervals: concurrent overlapping accesses count once, idle gaps count
// zero ("T should only include the time when I/O operation is performing").
//
// The library has one merge rule, IntervalUnion (metrics/interval_union.hpp),
// which the streaming OverlapConsumer (metrics/pipeline.hpp) runs over an
// ordered stream. The materialized entry points here sort, then run it:
//  * overlap_time_merged()     — sort, then IntervalUnion: the union measure.
//  * merge_intervals()         — the same, returning the disjoint runs the
//                                union's close hook emits.
//  * overlap_time_parallel()   — shards the sort on a ThreadPool and streams
//                                a k-way merge of the shards into
//                                IntervalUnion (overlap_parallel.cpp).
// Beside them, the reference:
//  * overlap_time_paper()      — the paper's Figure-3 algorithm, transcribed
//                                as literally as possible (sort by start, then
//                                a step-by-step record comparison that merges
//                                the next record into the current one). It is
//                                the reference the tests check T against.
//
// All agree on every input (tested exhaustively, with the O(n²) oracle of
// tests/overlap_oracle.hpp); the paper version is kept because reproducing
// the published algorithm verbatim is part of the point, and the ablation
// bench compares it with the library's T.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "common/thread_pool.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {

using trace::TimeInterval;

/// The paper's Figure-3 algorithm. Input order does not matter (the
/// algorithm sorts internally, as Figure 3 does). Empty input -> 0.
SimDuration overlap_time_paper(std::vector<TimeInterval> col_time);

/// Union measure: sort by (start, end), then IntervalUnion.
SimDuration overlap_time_merged(std::vector<TimeInterval> col_time);

/// The disjoint union runs, sorted: touching intervals merge, and a
/// zero-length interval apart from every other is a run of its own. Useful
/// for visualizing busy/idle phases (see examples/metric_pitfalls).
std::vector<TimeInterval> merge_intervals(std::vector<TimeInterval> col_time);

/// Sharded union measure: partition col_time into one shard per pool worker,
/// sort the shards concurrently, then stream the union scan over a k-way
/// merge of the sorted shards. The scan consumes exactly the sequence
/// overlap_time_merged() sorts to (ties carry identical (start, end) keys,
/// so shard order cannot change the union), hence the result is equal by
/// construction, not by rounding luck. Small inputs fall back to the serial
/// path — sharding 1e3 intervals costs more than it saves.
SimDuration overlap_time_parallel(std::vector<TimeInterval> col_time,
                                  ThreadPool& pool);

/// Convenience overload owning a transient pool of `threads` workers
/// (0 = hardware threads). Prefer the pool overload in loops.
SimDuration overlap_time_parallel(std::vector<TimeInterval> col_time,
                                  std::size_t threads);

/// Idle time inside the span of the collection: span length minus union.
SimDuration idle_time(const std::vector<TimeInterval>& col_time);

}  // namespace bpsio::metrics
