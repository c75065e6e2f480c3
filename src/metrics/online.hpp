// Online (streaming) BPS over a sliding window — the "hardware counter" the
// paper anticipates.
//
// Section III.C: "while I/O performance has received more and more attention
// in recent years, hardware counter for I/O performance is expected to be
// available in the near future." Such a counter would not store 32-byte
// records and sort them afterwards; it would keep B and T current as
// accesses complete. SlidingWindowMetrics is that counter for the live
// daemons: B, T, IOPS, BW and ARPT over the trailing window, with count
// and B in per-tick sums whose size does not depend on the records inside
// it, and T the exact union of its busy intervals.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "trace/io_record.hpp"

namespace bpsio::metrics {

/// The running figures of a sliding window: everything B, T, IOPS, BW and
/// ARPT are computed from, in one trivially copyable struct, so a scraper
/// can copy 32 bytes under a lock instead of the whole window.
struct WindowFigures {
  std::uint64_t count = 0;            ///< records in the window
  std::uint64_t blocks = 0;           ///< B: full block counts of live records
  std::int64_t busy_ns = 0;           ///< T: busy-interval union in the window
  std::int64_t response_sum_ns = 0;   ///< sum of live records' response times

  double bps() const;                       ///< B / T; 0 when T = 0
  double iops(SimDuration window) const;    ///< accesses / window length
  double arpt_s() const;                    ///< mean response time
  /// Application bytes per second over the window length.
  double bandwidth_bps(SimDuration window, Bytes block_size) const;
};

/// Sliding-window online metrics — the live counterpart of the post-mortem
/// pipeline, built for the aggregation daemon (bpsio_agentd).
///
/// Maintains B, T, IOPS, BW, and ARPT over a trailing window of 64 ticks,
/// where `now` is stream time: the largest access end seen (advance() can
/// push it further). The rule (DESIGN.md §10):
///
///  * a tick is tau = ceil(W / 64) ns wide; tick k covers [k tau, (k+1) tau),
///    with floor division for negative times;
///  * the window is ticks floor(now / tau) - 63 ... floor(now / tau), so its
///    left edge E = (floor(now / tau) - 63) tau (window_start_ns(),
///    saturated at INT64_MIN) lies within one tick of now - W;
///  * count, B and the response sum are per-tick sums by end tick: a record
///    adds 1, its full block count and its response time to the tick that
///    holds its end while that tick is in the window (end >= E), and expiry
///    subtracts whole ticks. The paper clamps time to a window, never
///    blocks;
///  * T is an exact integer interval-union measure over a flat sorted vector
///    of disjoint merged busy intervals, clipped at E (union-then-clamp
///    equals clamp-then-union, so clipping the merged set is exact); flat
///    because the live union is small and cache-dense — and the span-batch
///    add() unions a whole ordered frame into it with one hinted splice;
///  * IOPS and BW divide by W, which equals 64 tau for every whole-ms W.
///
/// The tick sums take at most 64 slots, allocated while the window holds a
/// record and released when it empties, so their size does not depend on
/// the ingest rate; the union grows with the idle gaps inside the window.
///
/// Unlike the batch pipeline, add() accepts records in ANY arrival order —
/// the daemon interleaves frames from many capture clients — and the result
/// is order-independent: test_online checks the store after every step
/// against a brute-force tick oracle over every record added so far
/// (tests/tick_oracle.hpp), on in-order and shuffled streams.
class SlidingWindowMetrics {
 public:
  explicit SlidingWindowMetrics(SimDuration window);

  /// Ingest one access record (any arrival order). Advances `now` to the
  /// record's end when it is the latest seen. Records whose end tick has
  /// left the window are ignored.
  void add(const trace::IoRecord& record);

  /// Batch ingest: final state is identical to add()-ing each record in
  /// turn (the window state is a function of the record multiset and
  /// `now`). Exploits the per-connection ordering contract — a frame sorted
  /// by start time unions into the interval store with one local merge and
  /// one hinted splice instead of a search per record — but stays correct
  /// (just slower) on unsorted input.
  void add(std::span<const trace::IoRecord> records);

  /// Slide the window forward to `now` (no-op when now <= current now):
  /// expires the ticks that leave it and clips the busy-interval union.
  /// add() calls this implicitly; a live exporter calls it before rendering
  /// so the window keeps sliding while traffic is idle.
  void advance(SimTime now);

  SimTime now() const { return now_; }
  SimDuration window() const { return window_; }
  /// Left edge E of the window, the first ns of its oldest tick (records
  /// with end >= E are live).
  std::int64_t window_start_ns() const { return edge_ns_; }

  /// True once any record has been ingested.
  bool any() const { return any_; }
  /// The running figures, for a copy-out under a caller's lock.
  const WindowFigures& figures() const { return figures_; }
  /// Records currently in the window.
  std::uint64_t accesses() const { return figures_.count; }
  /// B over the window (full block counts of live records).
  std::uint64_t blocks() const { return figures_.blocks; }
  /// T over the window: exact union of busy intervals clamped to it.
  SimDuration io_time() const { return SimDuration(figures_.busy_ns); }

  double bps() const { return figures_.bps(); }
  double iops() const { return figures_.iops(window_); }
  double arpt_s() const { return figures_.arpt_s(); }
  /// Application bytes per second over the window length.
  double bandwidth_bps(Bytes block_size = kDefaultBlockSize) const {
    return figures_.bandwidth_bps(window_, block_size);
  }

  /// Drop all state (window length is kept).
  void reset();

 private:
  static constexpr std::int64_t kTicks = 64;

  /// The sums of the live records whose end lies in one tick.
  struct Tick {
    std::uint64_t count = 0;
    std::uint64_t blocks = 0;
    std::int64_t response_sum_ns = 0;
  };
  struct BusyInterval {
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// Set `now` to `now_ns` (later than now, or the first record's end);
  /// on a new tick, expire the ticks that leave the window and clip the
  /// union at the new edge.
  void slide_to(std::int64_t now_ns);
  /// Add one live record (end >= edge) to its end tick.
  void count_record(std::int64_t end_ns, std::uint64_t blocks,
                    std::int64_t response_ns);
  void insert_interval(std::int64_t start_ns, std::int64_t end_ns);
  /// Union `batch_` (sorted, disjoint, non-touching) into `merged_` with
  /// one splice over the affected slice.
  void insert_runs();
  /// Clip the busy-interval union at the window edge.
  void clip_intervals();

  SimDuration window_;
  std::int64_t tick_ns_;  ///< tau = ceil(W / 64)
  SimTime now_{};
  bool any_ = false;
  std::int64_t tick_ = 0;        ///< index of the tick holding now
  std::int64_t tick_lo_ns_ = 0;  ///< its first ns, saturated at INT64_MIN
  std::int64_t tick_hi_ns_;      ///< its last ns, saturated at INT64_MAX
  std::int64_t edge_ns_;         ///< E, saturated at INT64_MIN
  WindowFigures figures_;
  /// kTicks slots, tick k in slot k mod 64; null while the window is empty.
  std::unique_ptr<Tick[]> ticks_;
  /// Disjoint, non-touching merged busy intervals sorted by start (hence
  /// also by end), all inside the window.
  std::vector<BusyInterval> merged_;
  std::vector<BusyInterval> batch_;      ///< scratch: one add(span)'s runs
  std::vector<BusyInterval> union_out_;  ///< scratch: spliced union slice
};

}  // namespace bpsio::metrics
