// BpsMeter — the paper's three-step measurement methodology as one object.
//
//   Step 1: per-process recording   -> trace::TraceBuffer (in the middleware)
//   Step 2: global gathering        -> gather() / TraceCollector
//   Step 3: overlapped-time compute -> measure()
//
// This is the headline public API: feed it I/O access records (from the
// built-in simulator, from a trace file, or from your own instrumentation)
// and it returns B, T, and BPS, plus the conventional metrics for
// comparison when the period and moved-byte count are supplied.
#pragma once

#include <cstdint>
#include <string>

#include "metrics/calculators.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::core {

struct BpsReading {
  std::uint64_t blocks = 0;     ///< B
  double io_time_s = 0;         ///< T (overlapped wall time of all accesses)
  double bps = 0;               ///< B / T
  std::uint64_t accesses = 0;   ///< record count
  std::size_t processes = 0;
  double idle_time_s = 0;       ///< span minus T
  double avg_concurrency = 0;   ///< sum(interval lengths) / T

  std::string to_string() const;
};

class BpsMeter {
 public:
  explicit BpsMeter(Bytes block_size = kDefaultBlockSize)
      : block_size_(block_size) {}

  Bytes block_size() const { return block_size_; }

  /// Step 2 — gather per-process buffers (call once per process/app).
  void gather(const trace::TraceBuffer& buffer) { collector_.gather(buffer); }
  void gather(const std::vector<trace::IoRecord>& records) {
    collector_.gather(records);
  }
  const trace::TraceCollector& collector() const { return collector_; }
  void clear() { collector_.clear(); }

  /// Step 3 — compute B, T and BPS over everything gathered so far.
  BpsReading measure(const trace::RecordFilter& filter = {}) const;

  /// Convenience: full four-metric sample for side-by-side comparison.
  metrics::MetricSample measure_all(Bytes moved_bytes,
                                    SimDuration exec_time) const {
    return metrics::measure_run(collector_, moved_bytes, exec_time,
                                block_size_);
  }

 private:
  Bytes block_size_;
  trace::TraceCollector collector_;
};

}  // namespace bpsio::core
