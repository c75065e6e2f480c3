// Live metric aggregation for bpsio_agentd.
//
// The daemon end of the paper's "global collection" (Section III.B): every
// frame a capture client ships lands here record by record. The aggregator
// keeps
//
//   * lifetime totals (records, blocks, failed/sync accesses) — exact
//     counters over everything ever received, and
//   * sliding-window online metrics (metrics/online.hpp) for the global
//     stream and for each pid seen, so /metrics answers "what is BPS right
//     now" instead of "what was BPS over the whole run".
//
// Timestamps are CLOCK_MONOTONIC ns (common/wallclock.hpp), shared by every
// process on the machine, so records from different clients interleave on
// one meaningful time axis and advance_windows(monotonic_ns()) keeps the
// windows sliding while traffic is idle.
//
// The aggregator is deliberately single-threaded (an inline ingest server's
// poll loop owns it); it does no I/O and never blocks.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "ingest/store.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::agent {

/// The ingest server's transport counters (ingest/store.hpp).
using TransportStats = ingest::Transport;

class MetricAggregator : public ingest::Store {
 public:
  MetricAggregator(SimDuration window, Bytes block_size);

  /// Ingest one record (any arrival order across clients). Invalid records
  /// (end < start) are counted in invalid_total() and otherwise ignored —
  /// a live daemon must not die on one malformed producer.
  void add(const trace::IoRecord& record);

  /// Batch ingest of one frame's records — same final state as add()-ing
  /// each in turn. A capture client batches per thread, so a frame is
  /// usually one pid's ordered burst: the span is grouped into maximal
  /// same-pid runs, each run costing one per-pid window lookup instead of
  /// one per record, and the windows take whole runs through their own
  /// span-batch add().
  void add(std::span<const trace::IoRecord> records);

  /// The store interface: windows are keyed by the records' pids, so a
  /// connection needs no slot and ingest() is add().
  Slot* slot(const std::string&) override { return nullptr; }
  void ingest(Slot*, std::span<const trace::IoRecord> records) override {
    add(records);
  }

  /// Slide every window forward to `now` (monotonic ns). No-op for windows
  /// already past it.
  void advance_windows(SimTime now) override;

  std::uint64_t records_total() const { return lifetime_.records; }
  std::uint64_t blocks_total() const { return lifetime_.blocks; }
  std::uint64_t failed_total() const { return lifetime_.failed; }
  std::uint64_t sync_total() const { return lifetime_.sync; }
  std::uint64_t invalid_total() const { return lifetime_.invalid; }
  std::uint64_t pids_seen() const { return per_pid_.size(); }
  SimDuration window() const { return window_; }

  const metrics::SlidingWindowMetrics& global() const { return global_; }

  /// Prometheus plaintext exposition: lifetime counters, transport stats,
  /// and per-window gauges labelled pid="all" plus one label set per pid.
  std::string prometheus_text(const TransportStats& transport) const override;

  /// CSV snapshot: one row per pid plus an "all" row, same windowed figures
  /// as /metrics. Written periodically by the daemon when --csv is given.
  std::string csv_snapshot() const override;

 private:
  metrics::SlidingWindowMetrics& pid_window(std::uint32_t pid);

  SimDuration window_;
  Bytes block_size_;
  metrics::SlidingWindowMetrics global_;
  std::map<std::uint32_t, metrics::SlidingWindowMetrics> per_pid_;
  ingest::Lifetime lifetime_;
};

}  // namespace bpsio::agent
