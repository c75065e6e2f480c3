#include "collector/tenant_shards.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"

namespace bpsio::collector {
namespace {

std::string tenant_tag(const std::string& name) {
  return "{tenant=\"" + name + "\"}";
}

/// One tenant's (or the fleet's) lifetime samples.
void lifetime_samples(std::string& out, const std::string& name,
                      const ingest::Lifetime& l) {
  const std::string tag = tenant_tag(name);
  out += "bpsio_records_total" + tag + " " + std::to_string(l.records) + "\n";
  out += "bpsio_blocks_total" + tag + " " + std::to_string(l.blocks) + "\n";
  out += "bpsio_failed_records_total" + tag + " " + std::to_string(l.failed) +
         "\n";
  out += "bpsio_sync_records_total" + tag + " " + std::to_string(l.sync) + "\n";
  out += "bpsio_invalid_records_total" + tag + " " +
         std::to_string(l.invalid) + "\n";
}

}  // namespace

TenantShards::TenantShards(std::size_t shard_count, SimDuration window,
                           Bytes block_size)
    : window_(window), block_size_(block_size), global_(window) {
  BPSIO_CHECK(shard_count > 0, "collector needs at least one shard");
  BPSIO_CHECK(block_size > 0, "collector block size must be positive");
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TenantShards::Shard& TenantShards::shard_for(const std::string& name) {
  return *shards_[std::hash<std::string>{}(name) % shards_.size()];
}

TenantShards::Tenant* TenantShards::handle(const std::string& name) {
  Shard& shard = shard_for(name);
  MutexLock lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end()) {
    const std::size_t index =
        std::hash<std::string>{}(name) % shards_.size();
    it = shard.tenants
             .emplace(name, std::make_unique<Tenant>(name, index, window_))
             .first;
  }
  return it->second.get();
}

void TenantShards::ingest(Tenant* tenant,
                          std::span<const trace::IoRecord> records) {
  BPSIO_CHECK(tenant != nullptr,
              "TenantShards::ingest without a tenant handle");
  // One pass over the span computes the counter deltas outside any lock;
  // the two critical sections below are a counter bump plus one span-batch
  // window splice each.
  ingest::Lifetime delta;
  const bool any_valid = delta.add(records) > 0;
  {
    Shard& shard = *shards_[tenant->shard];
    MutexLock lock(shard.mu);
    tenant->lifetime += delta;
    // SlidingWindowMetrics::add(span) skips invalid records itself, so the
    // whole span goes through in one call.
    if (any_valid) tenant->window.add(records);
  }
  {
    MutexLock lock(global_mu_);
    global_lifetime_ += delta;
    if (any_valid) global_.add(records);
  }
}

void TenantShards::advance_windows(SimTime now) {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [name, tenant] : shard->tenants) tenant->window.advance(now);
  }
  MutexLock lock(global_mu_);
  global_.advance(now);
}

std::uint64_t TenantShards::records_total() const {
  MutexLock lock(global_mu_);
  return global_lifetime_.records;
}

std::uint64_t TenantShards::blocks_total() const {
  MutexLock lock(global_mu_);
  return global_lifetime_.blocks;
}

std::uint64_t TenantShards::invalid_total() const {
  MutexLock lock(global_mu_);
  return global_lifetime_.invalid;
}

std::uint64_t TenantShards::tenants_seen() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->tenants.size();
  }
  return total;
}

std::vector<TenantShards::TenantSnapshot> TenantShards::snapshot() const {
  // Copy the counters and the window's figures (one 32-byte struct) out
  // under each shard lock; the renderers derive the rates from the copies.
  // The only calls in the critical section are vector appends and the
  // inline figures() accessor, leaves of the static call graph, so the
  // lock scopes stay tiny and add no lock-order edges.
  std::vector<TenantSnapshot> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [name, tenant] : shard->tenants) {
      out.push_back(
          TenantSnapshot{name, tenant->lifetime, tenant->window.figures()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantSnapshot& a, const TenantSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

TenantShards::TenantSnapshot TenantShards::snapshot_global() const {
  TenantSnapshot all{"all", {}, {}};
  MutexLock lock(global_mu_);
  all.lifetime = global_lifetime_;
  all.figures = global_.figures();
  return all;
}

std::string TenantShards::prometheus_text(
    const CollectorTransport& transport) const {
  const std::vector<TenantSnapshot> tenants = snapshot();
  const TenantSnapshot all = snapshot_global();

  std::string out;
  out.reserve(4096 + tenants.size() * 1024);
  ingest::family(out, "bpsio_records_total", "counter",
                 "I/O access records received, per tenant; tenant=\"all\" "
                 "is the fleet.");
  ingest::family(out, "bpsio_blocks_total", "counter",
                 "Application-required blocks received (B), per tenant.");
  ingest::family(out, "bpsio_failed_records_total", "counter",
                 "Records flagged as failed accesses (still counted in B).");
  ingest::family(out, "bpsio_sync_records_total", "counter",
                 "fsync/fdatasync records (zero-block, time-only).");
  ingest::family(out, "bpsio_invalid_records_total", "counter",
                 "Records rejected (end < start).");
  lifetime_samples(out, all.name, all.lifetime);
  for (const TenantSnapshot& t : tenants) {
    lifetime_samples(out, t.name, t.lifetime);
  }
  ingest::transport_families(out, transport, "agents", "Agent");
  ingest::family(out, "bpsio_streams_total", "counter",
                 "Distinct origin streams spooled.", transport.streams_total);
  ingest::family(out, "bpsio_tenants_seen", "gauge",
                 "Distinct tenants observed.", tenants.size());
  ingest::window_settings(out, window_, block_size_);
  ingest::family(out, "bpsio_window_bps", "gauge",
                 "Windowed BPS (blocks per second of busy time) per tenant; "
                 "tenant=\"all\" is the fleet stream.");
  ingest::window_gauges(out, tenant_tag(all.name), all.figures, window_,
                        block_size_);
  for (const TenantSnapshot& t : tenants) {
    ingest::window_gauges(out, tenant_tag(t.name), t.figures, window_,
                          block_size_);
  }
  return out;
}

std::string TenantShards::csv_snapshot() const {
  const std::vector<TenantSnapshot> tenants = snapshot();
  const TenantSnapshot all = snapshot_global();
  std::string out = "tenant,records_total,blocks_total," +
                    std::string(ingest::kWindowColumns);
  const auto row = [&out, this](const TenantSnapshot& t) {
    out += t.name + "," + std::to_string(t.lifetime.records) + "," +
           std::to_string(t.lifetime.blocks);
    ingest::window_cells(out, t.figures, window_, block_size_);
  };
  row(all);
  for (const TenantSnapshot& t : tenants) row(t);
  return out;
}

}  // namespace bpsio::collector
