#include "agent/aggregator.hpp"

#include "common/check.hpp"

namespace bpsio::agent {

MetricAggregator::MetricAggregator(SimDuration window, Bytes block_size)
    : window_(window), block_size_(block_size), global_(window) {
  BPSIO_CHECK(block_size > 0, "aggregator block size must be positive, got %llu",
              static_cast<unsigned long long>(block_size));
}

metrics::SlidingWindowMetrics& MetricAggregator::pid_window(std::uint32_t pid) {
  auto it = per_pid_.find(pid);
  if (it == per_pid_.end()) {
    it = per_pid_.emplace(pid, metrics::SlidingWindowMetrics(window_)).first;
  }
  return it->second;
}

void MetricAggregator::add(const trace::IoRecord& record) {
  if (lifetime_.add({&record, 1}) == 0) return;
  global_.add(record);
  pid_window(record.pid).add(record);
}

void MetricAggregator::add(std::span<const trace::IoRecord> records) {
  std::size_t i = 0;
  while (i < records.size()) {
    const std::uint32_t pid = records[i].pid;
    std::size_t j = i + 1;
    while (j < records.size() && records[j].pid == pid) ++j;
    const auto run = records.subspan(i, j - i);
    // A run of only invalid records must not conjure a per-pid window —
    // the per-record path never sees such a pid either.
    if (lifetime_.add(run) > 0) {
      global_.add(run);
      pid_window(pid).add(run);
    }
    i = j;
  }
}

void MetricAggregator::advance_windows(SimTime now) {
  global_.advance(now);
  for (auto& [pid, w] : per_pid_) w.advance(now);
}

std::string MetricAggregator::prometheus_text(
    const TransportStats& transport) const {
  std::string out;
  out.reserve(2048 + per_pid_.size() * 512);
  ingest::family(out, "bpsio_records_total", "counter",
                 "I/O access records received.", lifetime_.records);
  ingest::family(out, "bpsio_blocks_total", "counter",
                 "Application-required blocks received (B).",
                 lifetime_.blocks);
  ingest::family(out, "bpsio_failed_records_total", "counter",
                 "Records flagged as failed accesses (still counted in B).",
                 lifetime_.failed);
  ingest::family(out, "bpsio_sync_records_total", "counter",
                 "fsync/fdatasync records (zero-block, time-only).",
                 lifetime_.sync);
  ingest::family(out, "bpsio_invalid_records_total", "counter",
                 "Records rejected (end < start).", lifetime_.invalid);
  ingest::transport_families(out, transport, "clients", "Capture");
  ingest::family(out, "bpsio_pids_seen", "gauge",
                 "Distinct process ids observed.", per_pid_.size());
  ingest::window_settings(out, window_, block_size_);
  ingest::family(out, "bpsio_window_bps", "gauge",
                 "Windowed BPS (blocks per second of busy time) per pid; "
                 "pid=\"all\" is the global stream.");
  ingest::window_gauges(out, "{pid=\"all\"}", global_.figures(), window_,
                        block_size_);
  for (const auto& [pid, w] : per_pid_) {
    ingest::window_gauges(out, "{pid=\"" + std::to_string(pid) + "\"}",
                          w.figures(), window_, block_size_);
  }
  return out;
}

std::string MetricAggregator::csv_snapshot() const {
  std::string out = "pid," + std::string(ingest::kWindowColumns);
  out += "all";
  ingest::window_cells(out, global_.figures(), window_, block_size_);
  for (const auto& [pid, w] : per_pid_) {
    out += std::to_string(pid);
    ingest::window_cells(out, w.figures(), window_, block_size_);
  }
  return out;
}

}  // namespace bpsio::agent
