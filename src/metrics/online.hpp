// Online (streaming) BPS over a sliding window — the "hardware counter" the
// paper anticipates.
//
// Section III.C: "while I/O performance has received more and more attention
// in recent years, hardware counter for I/O performance is expected to be
// available in the near future." Such a counter would not store 32-byte
// records and sort them afterwards; it would keep B and T current as
// accesses complete. SlidingWindowMetrics is that counter for the live
// daemons: B, T, IOPS, BW and ARPT over the trailing window, in state
// proportional to the records inside it.
#pragma once

#include <cstdint>
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
/// Maintains B, T, IOPS, BW, and ARPT over the trailing window
/// (now - W, now], where `now` is stream time: the largest access end seen
/// (advance() can push it further). A record belongs to the window while
/// its end lies inside it (end > now - W) and contributes its full block
/// count while it does (the paper clamps time to a window, never blocks —
/// the same rule TimelineConsumer and col_time() apply). Two stores:
///
///  * T is an exact integer interval-union measure over a flat sorted
///    vector of disjoint merged busy intervals, clipped on the left as the
///    window slides (union-then-clamp equals clamp-then-union, so clipping
///    the merged set is exact); flat because the live union is small and
///    cache-dense — and the span-batch add() unions a whole ordered frame
///    into it with one hinted splice;
///  * count, B and the response sum come from end-time buckets 2^k ns wide,
///    k the smallest value with 64 * 2^k >= W, capped at 32. A bucket keeps
///    its running sums and one 12-byte entry per live record (end offset in
///    the bucket, blocks, response ns); a record whose blocks or response
///    need more than 32 bits goes to a short full-width list instead. A
///    bucket wholly behind the window edge is dropped by subtracting its
///    sums; the one bucket that holds the edge is heapified on end once and
///    popped record by record, so expiry stays exact.
///
/// Unlike the batch pipeline, add() accepts records in ANY arrival order —
/// the daemon interleaves frames from many capture clients — and the result
/// is order-independent: the window differential test feeds shuffled
/// permutations and compares against overlap_time_paper and the windowed
/// union of tests/overlap_oracle.hpp on the same window, and against the
/// per-record heap store it replaced (tests/window_oracle.hpp). State is
/// O(live records in window): 12 bytes each, plus the busy-interval union.
class SlidingWindowMetrics {
 public:
  explicit SlidingWindowMetrics(SimDuration window);

  /// Ingest one access record (any arrival order). Advances `now` to the
  /// record's end when it is the latest seen. Records entirely older than
  /// the window are ignored.
  void add(const trace::IoRecord& record);

  /// Batch ingest: final state is identical to add()-ing each record in
  /// turn (the window state is a function of the record multiset — the
  /// order-independence the differential tests prove). Exploits the
  /// per-connection ordering contract — a frame sorted by start time unions
  /// into the interval store with one local merge and one hinted splice
  /// instead of a search per record — but stays correct (just slower) on
  /// unsorted input.
  void add(std::span<const trace::IoRecord> records);

  /// Slide the window forward to `now` (no-op when now <= current now):
  /// evicts expired records and clips the busy-interval union. add() calls
  /// this implicitly; a live exporter calls it before rendering so the
  /// window keeps sliding while traffic is idle.
  void advance(SimTime now);

  SimTime now() const { return now_; }
  SimDuration window() const { return window_; }
  /// Left edge of the window, now - W (records with end > this are live).
  std::int64_t window_start_ns() const;

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
  /// One live record in its end-time bucket.
  struct Entry {
    std::uint32_t end_offset;  ///< end_ns minus the bucket's first ns
    std::uint32_t blocks;
    std::uint32_t response_ns;
  };
  /// The live records whose end lies in [index << shift_,
  /// (index + 1) << shift_), with their running sums.
  struct Bucket {
    std::int64_t index = 0;
    std::uint64_t count = 0;
    std::uint64_t blocks = 0;
    std::int64_t response_sum_ns = 0;
    bool heaped = false;  ///< entries form a min-heap on end_offset
    std::vector<Entry> entries;
  };
  /// A live record whose blocks or response time need more than 32 bits.
  struct Wide {
    std::int64_t end_ns;
    std::uint64_t blocks;
    std::int64_t response_ns;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.end_offset > b.end_offset;  // min-heap on end time
    }
  };
  struct WideLater {
    bool operator()(const Wide& a, const Wide& b) const {
      return a.end_ns > b.end_ns;  // min-heap on end time
    }
  };
  struct BusyInterval {
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// Add one live record (end > window start) to the record store.
  void insert_record(std::int64_t end_ns, std::uint64_t blocks,
                     std::int64_t response_ns);
  /// The bucket for `index`, created in order when absent.
  Bucket& bucket_at(std::int64_t index);
  /// Offset of `ns` from the first ns of its bucket.
  std::uint32_t bucket_offset(std::int64_t ns) const {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(ns) &
                                      ((std::uint64_t{1} << shift_) - 1));
  }
  void insert_interval(std::int64_t start_ns, std::int64_t end_ns);
  /// Union `batch_` (sorted, disjoint, non-touching) into `merged_` with
  /// one splice over the affected slice.
  void insert_runs();
  /// Drop every record whose end is at or behind the window start.
  void expire_records();
  /// Clip the busy-interval union at the window start.
  void clip_intervals();

  SimDuration window_;
  unsigned shift_;  ///< bucket width is 2^shift_ ns
  SimTime now_{};
  bool any_ = false;
  WindowFigures figures_;
  /// Disjoint, non-touching merged busy intervals sorted by start (hence
  /// also by end), all inside the window.
  std::vector<BusyInterval> merged_;
  std::vector<BusyInterval> batch_;      ///< scratch: one add(span)'s runs
  std::vector<BusyInterval> union_out_;  ///< scratch: spliced union slice
  std::vector<Bucket> buckets_;          ///< by ascending index
  std::vector<Wide> wide_;               ///< min-heap on end_ns
};

}  // namespace bpsio::metrics
