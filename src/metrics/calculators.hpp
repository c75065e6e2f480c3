// The four I/O metrics compared in the paper: IOPS, bandwidth, average
// response time (ARPT), and BPS — plus the expected-direction table (Table 1)
// and a combined MetricReport.
//
// Conventions (Section II / III of the paper):
//  * IOPS — application-visible I/O accesses per second over the measured
//    period (the record count divided by the period).
//  * Bandwidth — the data actually moved by the underlying file/storage
//    system divided by the period. NOTE: this is a component metric; the
//    moved-byte count comes from FS-level counters, not from the app records
//    (data sieving and prefetching make the two differ — that is Figure 12's
//    point).
//  * ARPT — arithmetic mean of per-access response times.
//  * BPS — application-required blocks divided by the overlapped I/O time T.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "stats/correlation.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {

/// BPS = B / T. `block_size` defaults to the paper's 512-byte unit.
/// Returns 0 when T is zero.
double bps(const trace::TraceCollector& collector,
           Bytes block_size = kDefaultBlockSize,
           const trace::RecordFilter& filter = {});

/// The overlapped I/O time T for a collector's records.
SimDuration overlapped_io_time(const trace::TraceCollector& collector,
                               const trace::RecordFilter& filter = {});

/// IOPS over an explicitly-supplied period (typically application execution
/// time). Returns 0 when the period is zero.
double iops(std::size_t access_count, SimDuration period);
double iops(const trace::TraceCollector& collector, SimDuration period,
            const trace::RecordFilter& filter = {});

/// Bandwidth (bytes/second) of `moved_bytes` over `period`.
double bandwidth(Bytes moved_bytes, SimDuration period);

/// Average response time in seconds. Returns 0 for an empty trace.
double arpt(const trace::TraceCollector& collector,
            const trace::RecordFilter& filter = {});

/// One experiment run boiled down: the overall-performance proxy
/// (execution time) plus all four metric values and their raw ingredients.
struct MetricSample {
  double exec_time_s = 0;   ///< application execution time (overall perf)
  double iops = 0;
  double bandwidth_bps = 0; ///< bytes per second moved at the FS level
  double arpt_s = 0;
  double bps = 0;           ///< blocks per second (the paper's metric)

  // Raw ingredients, for reports and debugging.
  std::uint64_t access_count = 0;
  std::uint64_t app_blocks = 0;  ///< B
  Bytes app_bytes = 0;           ///< application-required bytes
  Bytes moved_bytes = 0;         ///< bytes moved by the FS/storage layer
  double io_time_s = 0;          ///< T (overlapped I/O time)
  double peak_concurrency = 0;

  std::string to_string() const;
};

/// Compute every metric for one run.
/// `moved_bytes` comes from FS-level counters; `exec_time` from the run.
MetricSample measure_run(const trace::TraceCollector& collector,
                         Bytes moved_bytes, SimDuration exec_time,
                         Bytes block_size = kDefaultBlockSize);

/// The metrics under comparison, in the paper's column order.
enum class MetricKind { iops, bandwidth, arpt, bps };
inline constexpr MetricKind kAllMetrics[] = {
    MetricKind::iops, MetricKind::bandwidth, MetricKind::arpt, MetricKind::bps};

std::string metric_name(MetricKind kind);

/// Table 1: expected correlation direction of each metric against
/// application execution time.
stats::Direction expected_direction(MetricKind kind);

/// Extract one metric's value from a sample.
double metric_value(const MetricSample& sample, MetricKind kind);

}  // namespace bpsio::metrics
