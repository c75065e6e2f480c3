// Sharded per-tenant metric state for bpsio_collectord.
//
// The collector's scaling problem is the opposite of the agent's: one
// bpsio_agentd owns a single poll loop and a single-threaded aggregator,
// but a collector ingests frames from hundreds of agent connections on
// several I/O worker threads at once. TenantShards is the shared state they
// all write into, sharded so the common case — different tenants landing on
// different shards — takes disjoint locks:
//
//  * tenants hash onto `shard_count` shards; each shard owns a mutex, the
//    tenant map, and every tenant's lifetime counters + sliding window;
//  * ingest is span-batched: one lock acquisition per decoded frame, not
//    per record, so the critical sections stay tiny even under load;
//  * the fleet-wide "all" window lives in its own slot with its own mutex,
//    taken AFTER the tenant shard (one global lock order, enforced at
//    runtime by the common/mutex.hpp lock-order detector in debug and
//    sanitizer builds). The global interval union cannot be derived from
//    per-tenant unions (busy intervals of different tenants overlap), so it
//    is maintained directly; its lock is the designed serialization point
//    and its hold time is one span-batch splice.
//
// Rendering (Prometheus plaintext / CSV) walks the shards one lock at a
// time, copies each window's running figures (metrics::WindowFigures, 32
// bytes) rather than the window, and formats outside the locks, sorted by
// tenant name so the output is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "ingest/store.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::collector {

/// The ingest server's transport counters (ingest/store.hpp).
using CollectorTransport = ingest::Transport;

class TenantShards : public ingest::Store {
 public:
  /// One tenant's slot: stable address for the lifetime of the TenantShards
  /// (connections cache the handle after their hello instead of re-hashing
  /// the tenant name on every frame). All mutable fields are guarded by the
  /// owning shard's mutex.
  struct Tenant : Slot {
    explicit Tenant(std::string tenant_name, std::size_t shard_index,
                    SimDuration window_length)
        : name(std::move(tenant_name)),
          shard(shard_index),
          window(window_length) {}

    const std::string name;
    const std::size_t shard;
    metrics::SlidingWindowMetrics window;
    ingest::Lifetime lifetime;
  };

  TenantShards(std::size_t shard_count, SimDuration window, Bytes block_size);

  /// Find-or-create the tenant's slot. Thread-safe; the returned pointer is
  /// stable until destruction.
  Tenant* handle(const std::string& name);

  /// Span-batch ingest for one tenant: lifetime counters + tenant window
  /// under the tenant's shard lock, then the fleet window under the global
  /// lock. Invalid records (end < start) are counted and otherwise ignored,
  /// exactly like MetricAggregator — a fleet daemon must not die on one
  /// malformed producer.
  void ingest(Tenant* tenant, std::span<const trace::IoRecord> records);

  /// The store interface: a connection's slot is its tenant.
  Slot* slot(const std::string& tenant) override { return handle(tenant); }
  void ingest(Slot* slot, std::span<const trace::IoRecord> records) override {
    ingest(static_cast<Tenant*>(slot), records);
  }

  /// Slide every window (tenants + fleet) forward to `now` (monotonic ns).
  void advance_windows(SimTime now) override;

  /// Fleet-wide lifetime sums (each one shard walk).
  std::uint64_t records_total() const;
  std::uint64_t blocks_total() const;
  std::uint64_t invalid_total() const;
  std::uint64_t tenants_seen() const;

  std::size_t shard_count() const { return shards_.size(); }
  SimDuration window() const { return window_; }

  /// Prometheus plaintext exposition: fleet lifetime counters, transport
  /// stats, and windowed gauges labelled tenant="all" plus one label set
  /// per tenant (sorted by name).
  std::string prometheus_text(
      const CollectorTransport& transport) const override;

  /// CSV snapshot: one row per tenant plus an "all" row, same windowed
  /// figures as /metrics prefixed with the lifetime record/block counters.
  std::string csv_snapshot() const override;

 private:
  struct Shard {
    mutable Mutex mu;
    std::map<std::string, std::unique_ptr<Tenant>> tenants;
  };

  /// One tenant's counters and window figures, copied out under the shard
  /// lock so formatting runs lock-free.
  struct TenantSnapshot {
    std::string name;
    ingest::Lifetime lifetime;
    metrics::WindowFigures figures;
  };

  Shard& shard_for(const std::string& name);
  std::vector<TenantSnapshot> snapshot() const;
  TenantSnapshot snapshot_global() const;

  SimDuration window_;
  Bytes block_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable Mutex global_mu_;
  metrics::SlidingWindowMetrics global_ BPSIO_GUARDED_BY(global_mu_);
  ingest::Lifetime global_lifetime_ BPSIO_GUARDED_BY(global_mu_);
};

}  // namespace bpsio::collector
