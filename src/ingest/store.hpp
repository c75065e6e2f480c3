// What the ingest server's two metric stores share.
//
// bpsio_agentd and bpsio_collectord run the same ingest::Server
// (ingest/server.hpp); they differ in the store it drives.
// agent::MetricAggregator labels its windows by pid, collector::TenantShards
// by tenant. This header holds the interface the server calls, the lifetime
// and transport counters both stores report, and the Prometheus/CSV pieces
// both render over a window's running figures (metrics::WindowFigures), so
// a windowed gauge or CSV cell is formatted in exactly one place.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "agent/forward.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::ingest {

/// Exact counters over every record a store was given.
struct Lifetime {
  std::uint64_t records = 0;  ///< valid records
  std::uint64_t blocks = 0;   ///< B of the valid records
  std::uint64_t failed = 0;   ///< valid records flagged failed (still in B)
  std::uint64_t sync = 0;     ///< valid fsync/fdatasync records
  std::uint64_t invalid = 0;  ///< records rejected (end < start)

  /// Count `records`; returns how many of them were valid.
  std::uint64_t add(std::span<const trace::IoRecord> records);
  Lifetime& operator+=(const Lifetime& other);
};

/// Counters the server keeps about its connections, reported on /metrics
/// next to the record metrics.
struct Transport {
  std::uint64_t connected_total = 0;   ///< connections accepted
  std::uint64_t active = 0;            ///< connections open now
  std::uint64_t frames_total = 0;      ///< complete data frames decoded
  std::uint64_t bad_frames_total = 0;  ///< connections dropped on a bad frame
  std::uint64_t streams_total = 0;     ///< (connection, origin stream) spools
  /// Upstream forwarding figures; exported only when forward.enabled.
  agent::ForwardStats forward;
};

/// The tenant of a connection that never sent a hello frame.
inline constexpr const char* kDefaultTenant = "default";

/// The calls the server makes on its store. A server with I/O worker
/// threads calls slot() and ingest() from all of them at once and the
/// renderers from its poll thread, so it needs a thread-safe store
/// (TenantShards); MetricAggregator is single-threaded and runs on an
/// inline server only.
class Store {
 public:
  /// A store's handle for one connection, resolved once per connection.
  struct Slot {};

  /// The slot for a connection whose hello announced `tenant`
  /// (kDefaultTenant for a connection without one). May be null for a
  /// store that keys on the records alone.
  virtual Slot* slot(const std::string& tenant) = 0;
  /// Ingest one decoded frame of the connection holding `slot`.
  virtual void ingest(Slot* slot, std::span<const trace::IoRecord> records) = 0;
  /// Slide every window forward to `now` (monotonic ns).
  virtual void advance_windows(SimTime now) = 0;
  /// Prometheus plaintext exposition (text/plain; version 0.0.4).
  virtual std::string prometheus_text(const Transport& transport) const = 0;
  /// CSV snapshot of the windowed figures, one row per label.
  virtual std::string csv_snapshot() const = 0;

 protected:
  ~Store() = default;
};

// ------------------------------------------------------------ exposition

/// The window columns of a CSV snapshot; window_cells() fills them.
inline constexpr std::string_view kWindowColumns =
    "window_records,window_blocks,window_io_s,window_bps,window_iops,"
    "window_bw_Bps,window_arpt_s\n";

/// `# HELP` and `# TYPE` lines of one metric family.
void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help);
/// A family with one unlabelled sample.
void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help, std::uint64_t value);

/// The connection and frame families. `peers` names the connections in the
/// series ("clients" -> bpsio_clients_active) and `peer` in the help text
/// ("Capture" -> "Capture connections currently open."). The forward
/// families follow when transport.forward.enabled.
void transport_families(std::string& out, const Transport& transport,
                        std::string_view peers, std::string_view peer);

/// bpsio_window_seconds and bpsio_block_size_bytes.
void window_settings(std::string& out, SimDuration window, Bytes block_size);

/// The seven windowed gauges of one label set; `tag` is the label set,
/// e.g. `{pid="all"}`.
void window_gauges(std::string& out, std::string_view tag,
                   const metrics::WindowFigures& figures, SimDuration window,
                   Bytes block_size);

/// The kWindowColumns cells of one CSV row, each after a comma, then the
/// row's newline.
void window_cells(std::string& out, const metrics::WindowFigures& figures,
                  SimDuration window, Bytes block_size);

}  // namespace bpsio::ingest
