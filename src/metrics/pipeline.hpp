// Single-pass metric pipeline — the push side of the streaming architecture.
//
// A MetricPipeline pulls ordered record chunks from a trace::RecordSource
// and pushes them through attached MetricConsumers, computing a full
// MetricSample in one pass and O(chunk + concurrency) memory. The overlap
// consumer merges the ordered stream into one open interval (Figure 3's
// rule, metrics/interval_union.hpp), so T is the exact integer union
// measure the batch algorithms compute; the pending ends (PeakConcurrency:
// a 4-ary min-heap beside an unordered buffer) give the peak concurrency; B and
// ARPT accumulate in integers. Every accumulator is
// either order-independent (integer sums) or consumes the canonical
// (start, end) order, which is why the streaming path is bit-identical to the
// batch path — the differential tests in tests/test_metric_pipeline.cpp
// assert it.
//
//   sources (trace/record_source.hpp)        consumers (this header)
//   ---------------------------------        -----------------------------
//   VectorSource / collector_source   \      BlocksConsumer        -> B
//   MappedTraceSource (a .bpstrace)    } ->  OverlapConsumer       -> T, peak
//   MergedSource (k-way)              /      ArptConsumer          -> ARPT
//                                            TimelineConsumer      -> windows
//                                     MetricPipeline::run() -> MetricSample
//
// Every run checks the stream's order. The batch entry points (measure_run,
// bps, iops, arpt, BpsMeter::measure, build_timeline, ...) are thin adapters
// over this pipeline via collector_source(), which applies their
// RecordFilter and sorts, so both paths run the same code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "metrics/calculators.hpp"
#include "metrics/interval_union.hpp"
#include "metrics/timeline.hpp"
#include "trace/record_source.hpp"

namespace bpsio::metrics {

/// Sink interface: receives ordered record chunks, then one finish() call.
class MetricConsumer {
 public:
  virtual ~MetricConsumer() = default;

  /// One chunk of the stream. Records across consume() calls are in
  /// nondecreasing (start_ns, end_ns) order.
  virtual void consume(std::span<const trace::IoRecord> chunk) = 0;

  /// The stream is exhausted; flush any open state.
  virtual void finish() {}

  /// Ok unless the consumer refused the stream; MetricPipeline::run() then
  /// fails with this status.
  virtual Status status() const { return {}; }
};

/// B accumulator: exact integer record and block counts (unsigned addition
/// is associative, so the result is independent of chunking and order).
class BlocksConsumer final : public MetricConsumer {
 public:
  void consume(std::span<const trace::IoRecord> chunk) override;

  std::uint64_t record_count() const { return records_; }
  std::uint64_t blocks() const { return blocks_; }
  Bytes bytes(Bytes block_size = kDefaultBlockSize) const {
    return blocks_to_bytes(blocks_, block_size);
  }

 private:
  std::uint64_t records_ = 0;
  std::uint64_t blocks_ = 0;
};

/// ARPT accumulator: integer-ns response-time total in 128-bit arithmetic,
/// divided once at the end — exact and order-independent, unlike a running
/// double sum (which is why the batch arpt() adapter also runs on this).
class ArptConsumer final : public MetricConsumer {
 public:
#ifdef __SIZEOF_INT128__
  using TotalNs = __int128;
#else
  using TotalNs = std::int64_t;  // ~292 years of summed response time
#endif

  void consume(std::span<const trace::IoRecord> chunk) override;

  std::uint64_t count() const { return count_; }
  /// Mean response time in seconds; 0 for an empty stream.
  double arpt_s() const;

 private:
  std::uint64_t count_ = 0;
  TotalNs total_ns_ = 0;
};

/// The ends of the intervals still open at a sweep's position, earliest on
/// top: a 4-ary min-heap in one vector. Push and pop are O(log4 n); a pop
/// picks the smallest of four children with selects rather than branches,
/// and a 4-ary heap is half as deep as a binary one, so its sift-down
/// takes half the unpredictable branches.
class PendingEnds {
 public:
  bool empty() const { return ends_.empty(); }
  std::size_t size() const { return ends_.size(); }
  /// The earliest end; the heap must not be empty.
  std::int64_t top() const { return ends_.front(); }

  void push(std::int64_t end) {
    std::size_t i = ends_.size();
    ends_.push_back(end);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (ends_[parent] <= end) break;
      ends_[i] = ends_[parent];
      i = parent;
    }
    ends_[i] = end;
  }

  void clear() { ends_.clear(); }

  /// Removes the earliest end; the heap must not be empty.
  void pop() {
    const std::int64_t last = ends_.back();
    ends_.pop_back();
    if (!ends_.empty()) sift_down(last);
  }

 private:
  /// Settles `end` into the root's place, whose old value is discarded.
  void sift_down(std::int64_t end) {
    std::vector<std::int64_t>& e = ends_;
    const std::size_t n = e.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= n) break;
      std::size_t m = c;
      std::int64_t least = e[c];
      if (c + 3 < n) {
        // Two rounds of selects, carrying the values so that no round
        // waits on a reload.
        const bool odd_lo = e[c + 1] < e[c];
        const bool odd_hi = e[c + 3] < e[c + 2];
        const std::int64_t lo = odd_lo ? e[c + 1] : e[c];
        const std::int64_t hi = odd_hi ? e[c + 3] : e[c + 2];
        const bool upper = hi < lo;
        m = upper ? c + 2 + odd_hi : c + odd_lo;
        least = upper ? hi : lo;
      } else {
        for (std::size_t j = c + 1; j < n; ++j) {
          if (e[j] < least) {
            least = e[j];
            m = j;
          }
        }
      }
      if (end <= least) break;
      e[i] = least;
      i = m;
    }
    e[i] = end;
  }

  std::vector<std::int64_t> ends_;
};

/// The peak number of intervals open at once, over intervals added in
/// nondecreasing start order: the most ends still pending at any start, an
/// end equal to the start retiring first (the batch sweep's "-1 before +1
/// at the same time" rule).
///
/// The pending ends sit in a PendingEnds heap and an unordered buffer.
/// Every new end goes into the buffer. A start at or past the latest
/// pending end retires them all at once. Otherwise heap size plus buffer
/// size bounds the intervals open at the start from above, so while that
/// bound stays below the running peak the peak cannot change, and nothing
/// is retired. Else the heap pops its ends at or before the start and one
/// branch-free pass drops the buffer's; what remains is the exact open
/// count. A retirement that keeps more than kSpillFactor times the ends
/// added since the previous one moves the buffer into the heap, so a
/// stream that sits at its peak (a closed loop at a fixed queue depth)
/// pays heap cost rather than a scan of every open end per record.
class PeakConcurrency {
 public:
  /// Adds [start, end): end > start, and start at or after every earlier
  /// interval's start.
  void add(std::int64_t start, std::int64_t end) {
    if (start >= latest_end_) {
      ends_.clear();
      buffered_.clear();
      kept_ = 0;
      peak_ = std::max<std::size_t>(peak_, 1);
    } else if (ends_.size() + buffered_.size() >= peak_) {
      // With this interval, at most size + 1 are open.
      retire(start);
      peak_ = std::max(peak_, ends_.size() + buffered_.size() + 1);
    }
    buffered_.push_back(end);
    latest_end_ = std::max(latest_end_, end);
  }

  std::size_t peak() const { return peak_; }
  /// How often the bound reached the peak and the pending ends were
  /// scanned, and how often such a scan moved the buffer into the heap.
  std::uint64_t retirements() const { return retirements_; }
  std::uint64_t spills() const { return spills_; }

 private:
  static constexpr std::size_t kSpillFactor = 4;

  /// Drops the pending ends at or before `start`, then spills the buffer
  /// into the heap when it kept too many.
  void retire(std::int64_t start);

  PendingEnds ends_;
  std::vector<std::int64_t> buffered_;
  /// The buffer's size after the last retirement.
  std::size_t kept_ = 0;
  std::int64_t latest_end_ = std::numeric_limits<std::int64_t>::min();
  std::size_t peak_ = 0;
  std::uint64_t retirements_ = 0;
  std::uint64_t spills_ = 0;
};

/// T accumulator: exact integer union measure of the access intervals, plus
/// the span statistics of the same stream (peak and average concurrency,
/// idle time). When a filter window is given, intervals are clamped to it
/// exactly as TraceCollector::col_time() clamps — blocks are never clamped,
/// only time is.
class OverlapConsumer final : public MetricConsumer {
 public:
  OverlapConsumer() = default;
  /// Adopts the filter's window bounds (selecting the records is
  /// trace::collector_source's job, not this consumer's).
  explicit OverlapConsumer(const trace::RecordFilter& filter)
      : window_start_(filter.window_start_ns),
        window_end_(filter.window_end_ns) {}

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override;

  /// T — only valid after finish().
  SimDuration io_time() const { return SimDuration(union_.busy_ns()); }
  std::size_t peak_concurrency() const { return peak_.peak(); }
  /// sum(interval lengths) / T; 0 when T is 0.
  double avg_concurrency() const;
  /// Span of the (clamped) intervals minus T; 0 for an empty stream.
  SimDuration idle_time() const;

 private:
  std::optional<std::int64_t> window_start_;
  std::optional<std::int64_t> window_end_;
  IntervalUnion<> union_;
  PeakConcurrency peak_;
  bool any_interval_ = false;
  std::int64_t sum_len_ns_ = 0;
  std::int64_t lo_ns_ = 0;
  std::int64_t hi_ns_ = 0;
};

/// Distinct-pid counter over a stream.
class ProcessCountConsumer final : public MetricConsumer {
 public:
  void consume(std::span<const trace::IoRecord> chunk) override;
  std::size_t process_count() const { return pids_.size(); }

 private:
  std::unordered_set<std::uint32_t> pids_;
};

/// Time-at-concurrency-level profile (metrics::concurrency_profile): a
/// chronological sweep over the pending ends, visiting the constant-level
/// segments in the order the batch event sort did (ends retire before a
/// start at the same time), so the double accumulation is identical.
class ConcurrencyProfileConsumer final : public MetricConsumer {
 public:
  ConcurrencyProfileConsumer() = default;
  explicit ConcurrencyProfileConsumer(const trace::RecordFilter& filter)
      : window_start_(filter.window_start_ns),
        window_end_(filter.window_end_ns) {}

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override;

  /// Normalized time-at-level fractions — only valid after finish().
  const std::vector<double>& profile() const { return at_level_; }

 private:
  /// Books [prev_ns_, t) at the current level, then moves to t.
  void advance(std::int64_t t);

  std::optional<std::int64_t> window_start_;
  std::optional<std::int64_t> window_end_;
  PendingEnds ends_;
  std::int64_t prev_ns_ = 0;
  std::vector<double> at_level_;
  double busy_total_ = 0;
};

/// Windowed timeline builder (metrics::build_timeline) with O(windows)
/// state: one streaming union per window instead of per-window interval
/// lists. Window bounds default to the stream's span; explicit bounds come
/// from the analysis filter. A record whose last window index would reach
/// kMaxTimelineWindows fails the consumer (Errc::out_of_range) before any
/// window is allocated for it; the rest of the stream is then ignored.
class TimelineConsumer final : public MetricConsumer {
 public:
  TimelineConsumer(SimDuration window,
                   std::optional<std::int64_t> lo = std::nullopt,
                   std::optional<std::int64_t> hi = std::nullopt);

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override;
  Status status() const override { return status_; }

  /// After a refusal, the smallest window (ns) that holds the refused
  /// record within kMaxTimelineWindows windows; 0 while the status is ok.
  std::int64_t fitting_window_ns() const { return fitting_window_ns_; }

  /// The finished timeline — only valid after finish(); moves it out.
  Timeline take() { return std::move(timeline_); }

 private:
  struct WindowUnion {
    IntervalUnion<> busy;
    std::int64_t sum_len_ns = 0;
  };

  void ensure_windows(std::size_t count);
  /// Fails the consumer on a record `reach` ns past lo_.
  void refuse(std::uint64_t reach);

  std::int64_t window_ns_;
  /// Reach at which a record needs too many windows: at most 2^63, so the
  /// window arithmetic below it stays in int64.
  std::uint64_t reach_limit_;
  Status status_;
  std::int64_t fitting_window_ns_ = 0;
  std::optional<std::int64_t> lo_override_;
  std::optional<std::int64_t> hi_override_;
  std::int64_t lo_ = 0;
  std::int64_t max_end_ = 0;
  bool any_ = false;
  Timeline timeline_;
  std::vector<WindowUnion> unions_;
};

/// Drives one source through the attached consumers in a single pass.
class MetricPipeline {
 public:
  /// Attach a consumer (not owned; must outlive run()).
  MetricPipeline& attach(MetricConsumer& consumer);

  /// Pull the source dry, pushing each chunk through every consumer, then
  /// finish() them. Fails on an unordered stream or a failed source;
  /// consumer state is unspecified after a failure.
  Status run(trace::RecordSource& source);

  std::uint64_t records_processed() const { return processed_; }

 private:
  std::vector<MetricConsumer*> consumers_;
  std::uint64_t processed_ = 0;
};

/// Compute a full MetricSample from an ordered record stream in one pass and
/// bounded memory; measure_run() is this over a collector's records. T comes
/// from OverlapConsumer, and the differential tests check it against the
/// Figure-3 reference, overlap_time_paper().
Result<MetricSample> measure_stream(trace::RecordSource& source,
                                    Bytes moved_bytes, SimDuration exec_time,
                                    Bytes block_size = kDefaultBlockSize);

}  // namespace bpsio::metrics
