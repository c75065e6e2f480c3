// Global trace collection (Step 2 of the BPS measurement methodology).
//
// "We collect the I/O access information of all processes to have a
//  comprehensive knowledge of the performance of the overall I/O system.
//  First, we accumulate the number of I/O blocks of each process into B ...
//  Second, we gather the I/O time information of all processes into one time
//  collection (col_time) ..." (Section III.B)
//
// If the I/O system services more than one application concurrently, the
// collector accepts buffers from all of them: B and col_time are global.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/mutex.hpp"
#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"
#include "trace/io_record.hpp"
#include "trace/trace_buffer.hpp"

namespace bpsio::trace {

/// A [start, end) time pair — one element of the paper's col_time.
struct TimeInterval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  SimDuration length() const { return SimDuration(end_ns - start_ns); }
  friend bool operator==(const TimeInterval&, const TimeInterval&) = default;
};

/// Predicate filter for selective analysis (per-pid, per-op, time-window).
struct RecordFilter {
  std::optional<std::uint32_t> pid;
  std::optional<IoOpKind> op;
  std::optional<std::int64_t> window_start_ns;
  std::optional<std::int64_t> window_end_ns;
  bool include_failed = true;

  bool matches(const IoRecord& r) const;
};

/// Threading contract: mutators (gather / add / clear) are serialized by an
/// internal annotated mutex, so concurrent processes may gather their buffers
/// directly. Readers (records(), col_time(), total_blocks(), ...) take no lock
/// — analysis runs on a quiescent collection (all gathering finished), which
/// is how the Figure-3 pipeline is specified. Do not read while a gather is
/// in flight.
class TraceCollector {
 public:
  TraceCollector() = default;

  /// Copies/moves exist so RunResult can carry a collector by value. They
  /// follow the quiescent-read contract: the source must have no gather in
  /// flight (hence the analysis opt-out — there is no lock to hold here).
  TraceCollector(const TraceCollector& other) BPSIO_NO_THREAD_SAFETY_ANALYSIS
      : records_(other.records_) {}
  TraceCollector(TraceCollector&& other) noexcept BPSIO_NO_THREAD_SAFETY_ANALYSIS
      : records_(std::move(other.records_)) {}
  TraceCollector& operator=(const TraceCollector& other)
      BPSIO_NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) records_ = other.records_;
    return *this;
  }
  TraceCollector& operator=(TraceCollector&& other) noexcept
      BPSIO_NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) records_ = std::move(other.records_);
    return *this;
  }

  /// Gather one process's buffer into the global collection. Thread-safe.
  void gather(const TraceBuffer& buffer);
  /// Gather raw records (e.g. loaded from a trace file). Thread-safe.
  void gather(const std::vector<IoRecord>& records);
  void add(const IoRecord& record);

  std::size_t record_count() const;
  /// Quiescent-read accessor (see class comment): must not race a mutator.
  const std::vector<IoRecord>& records() const BPSIO_NO_THREAD_SAFETY_ANALYSIS {
    return records_;
  }
  void clear();

  /// B — total number of I/O blocks required by the applications
  /// (all processes, successful or not, concurrent or not).
  std::uint64_t total_blocks(const RecordFilter& filter = {}) const;

  /// col_time — the (start, end) pairs of all matching accesses, in
  /// gathered order (the overlap algorithms sort as needed).
  std::vector<TimeInterval> col_time(const RecordFilter& filter = {}) const;

  /// Number of distinct pids seen.
  std::size_t process_count() const;

 private:
  /// Quiescent readers go through records(); every mutation locks mu_.
  mutable Mutex mu_;
  std::vector<IoRecord> records_ BPSIO_GUARDED_BY(mu_);
};

}  // namespace bpsio::trace
