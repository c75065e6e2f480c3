#include "collector/tenant_shards.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"
#include "common/format.hpp"

namespace bpsio::collector {
namespace {

/// One tenant's (or the fleet's) windowed gauge block, labelled
/// {tenant="<label>"}.
void window_gauges(std::string& out, const std::string& label,
                   std::uint64_t window_records, std::uint64_t window_blocks,
                   double window_io_s, double bps, double iops, double bw_bps,
                   double arpt_s) {
  const std::string tag = "{tenant=\"" + label + "\"}";
  out += "bpsio_window_records" + tag + " " + std::to_string(window_records) +
         "\n";
  out += "bpsio_window_blocks" + tag + " " + std::to_string(window_blocks) +
         "\n";
  out += "bpsio_window_io_seconds" + tag + " " + fmt_double(window_io_s, 9) +
         "\n";
  out += "bpsio_window_bps" + tag + " " + fmt_double(bps, 3) + "\n";
  out += "bpsio_window_iops" + tag + " " + fmt_double(iops, 3) + "\n";
  out += "bpsio_window_bw_bytes_per_second" + tag + " " +
         fmt_double(bw_bps, 3) + "\n";
  out += "bpsio_window_arpt_seconds" + tag + " " + fmt_double(arpt_s, 9) +
         "\n";
}

void lifetime_counters(std::string& out, const std::string& label,
                       std::uint64_t records, std::uint64_t blocks,
                       std::uint64_t failed, std::uint64_t sync,
                       std::uint64_t invalid) {
  const std::string tag = "{tenant=\"" + label + "\"}";
  out += "bpsio_records_total" + tag + " " + std::to_string(records) + "\n";
  out += "bpsio_blocks_total" + tag + " " + std::to_string(blocks) + "\n";
  out += "bpsio_failed_records_total" + tag + " " + std::to_string(failed) +
         "\n";
  out += "bpsio_sync_records_total" + tag + " " + std::to_string(sync) + "\n";
  out += "bpsio_invalid_records_total" + tag + " " + std::to_string(invalid) +
         "\n";
}

void csv_row(std::string& out, const std::string& label,
             std::uint64_t records, std::uint64_t blocks,
             std::uint64_t window_records, std::uint64_t window_blocks,
             double window_io_s, double bps, double iops, double bw_bps,
             double arpt_s) {
  out += label + "," + std::to_string(records) + "," + std::to_string(blocks) +
         "," + std::to_string(window_records) + "," +
         std::to_string(window_blocks) + "," + fmt_double(window_io_s, 9) +
         "," + fmt_double(bps, 3) + "," + fmt_double(iops, 3) + "," +
         fmt_double(bw_bps, 3) + "," + fmt_double(arpt_s, 9) + "\n";
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
  std::uint64_t valid = 0;
  std::uint64_t blocks = 0;
  std::uint64_t failed = 0;
  std::uint64_t sync = 0;
  std::uint64_t invalid = 0;
  for (const trace::IoRecord& r : records) {
    if (!r.valid()) {
      ++invalid;
      continue;
    }
    ++valid;
    blocks += r.blocks;
    if (r.failed()) ++failed;
    if (r.sync()) ++sync;
  }
  {
    Shard& shard = *shards_[tenant->shard];
    MutexLock lock(shard.mu);
    tenant->records_total += valid;
    tenant->blocks_total += blocks;
    tenant->failed_total += failed;
    tenant->sync_total += sync;
    tenant->invalid_total += invalid;
    // SlidingWindowMetrics::add(span) skips invalid records itself, so the
    // whole span goes through in one call.
    if (valid > 0) tenant->window.add(records);
  }
  {
    MutexLock lock(global_mu_);
    global_records_ += valid;
    global_blocks_ += blocks;
    global_failed_ += failed;
    global_sync_ += sync;
    global_invalid_ += invalid;
    if (valid > 0) global_.add(records);
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
  return global_records_;
}

std::uint64_t TenantShards::blocks_total() const {
  MutexLock lock(global_mu_);
  return global_blocks_;
}

std::uint64_t TenantShards::invalid_total() const {
  MutexLock lock(global_mu_);
  return global_invalid_;
}

std::uint64_t TenantShards::tenants_seen() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->tenants.size();
  }
  return total;
}

void TenantShards::fill_window_figures(TenantSnapshot& snap,
                                       const metrics::WindowFigures& w,
                                       SimDuration window, Bytes block_size) {
  snap.window_records = w.count;
  snap.window_blocks = w.blocks;
  snap.window_io_s = SimDuration(w.busy_ns).seconds();
  snap.bps = w.bps();
  snap.iops = w.iops(window);
  snap.bw_bps = w.bandwidth_bps(window, block_size);
  snap.arpt_s = w.arpt_s();
}

std::vector<TenantShards::TenantSnapshot> TenantShards::snapshot() const {
  // Copy the counters and the window's figures (one 32-byte struct) out
  // under each shard lock, then derive the rates after the lock is
  // dropped. The only calls in the critical section are vector appends and
  // the inline figures() accessor, leaves of the static call graph, so the
  // lock scopes stay tiny and add no lock-order edges.
  std::vector<TenantSnapshot> out;
  std::vector<metrics::WindowFigures> figures;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [name, tenant] : shard->tenants) {
      out.push_back(TenantSnapshot{name, tenant->records_total,
                                   tenant->blocks_total, tenant->failed_total,
                                   tenant->sync_total, tenant->invalid_total,
                                   0, 0, 0.0, 0.0, 0.0, 0.0, 0.0});
      figures.push_back(tenant->window.figures());
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    fill_window_figures(out[i], figures[i], window_, block_size_);
  }
  std::sort(out.begin(), out.end(),
            [](const TenantSnapshot& a, const TenantSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

TenantShards::TenantSnapshot TenantShards::snapshot_global() const {
  TenantSnapshot all{};
  all.name = "all";
  metrics::WindowFigures figures;
  {
    MutexLock lock(global_mu_);
    all.records_total = global_records_;
    all.blocks_total = global_blocks_;
    all.failed_total = global_failed_;
    all.sync_total = global_sync_;
    all.invalid_total = global_invalid_;
    figures = global_.figures();
  }
  fill_window_figures(all, figures, window_, block_size_);
  return all;
}

std::string TenantShards::prometheus_text(
    const CollectorTransport& transport) const {
  const std::vector<TenantSnapshot> tenants = snapshot();
  const TenantSnapshot all = snapshot_global();

  std::string out;
  out.reserve(4096 + tenants.size() * 1024);
  out += "# HELP bpsio_records_total I/O access records received, per "
         "tenant; tenant=\"all\" is the fleet.\n";
  out += "# TYPE bpsio_records_total counter\n";
  out += "# HELP bpsio_blocks_total Application-required blocks received "
         "(B), per tenant.\n";
  out += "# TYPE bpsio_blocks_total counter\n";
  out += "# HELP bpsio_failed_records_total Records flagged as failed "
         "accesses (still counted in B).\n";
  out += "# TYPE bpsio_failed_records_total counter\n";
  out += "# HELP bpsio_sync_records_total fsync/fdatasync records "
         "(zero-block, time-only).\n";
  out += "# TYPE bpsio_sync_records_total counter\n";
  out += "# HELP bpsio_invalid_records_total Records rejected "
         "(end < start).\n";
  out += "# TYPE bpsio_invalid_records_total counter\n";
  lifetime_counters(out, all.name, all.records_total, all.blocks_total,
                    all.failed_total, all.sync_total, all.invalid_total);
  for (const TenantSnapshot& t : tenants) {
    lifetime_counters(out, t.name, t.records_total, t.blocks_total,
                      t.failed_total, t.sync_total, t.invalid_total);
  }

  out += "# HELP bpsio_agents_connected_total Agent connections accepted.\n";
  out += "# TYPE bpsio_agents_connected_total counter\n";
  out += "bpsio_agents_connected_total " +
         std::to_string(transport.agents_connected_total) + "\n";
  out += "# HELP bpsio_agents_active Agent connections currently open.\n";
  out += "# TYPE bpsio_agents_active gauge\n";
  out += "bpsio_agents_active " + std::to_string(transport.agents_active) +
         "\n";
  out += "# HELP bpsio_frames_total Complete record frames decoded.\n";
  out += "# TYPE bpsio_frames_total counter\n";
  out += "bpsio_frames_total " + std::to_string(transport.frames_total) + "\n";
  out += "# HELP bpsio_bad_frames_total Connections dropped on a malformed "
         "frame.\n";
  out += "# TYPE bpsio_bad_frames_total counter\n";
  out += "bpsio_bad_frames_total " +
         std::to_string(transport.bad_frames_total) + "\n";
  out += "# HELP bpsio_streams_total Distinct origin streams spooled.\n";
  out += "# TYPE bpsio_streams_total counter\n";
  out += "bpsio_streams_total " + std::to_string(transport.streams_total) +
         "\n";

  out += "# HELP bpsio_tenants_seen Distinct tenants observed.\n";
  out += "# TYPE bpsio_tenants_seen gauge\n";
  out += "bpsio_tenants_seen " + std::to_string(tenants.size()) + "\n";
  out += "# HELP bpsio_window_seconds Sliding-window length.\n";
  out += "# TYPE bpsio_window_seconds gauge\n";
  out += "bpsio_window_seconds " + fmt_double(window_.seconds(), 3) + "\n";
  out += "# HELP bpsio_block_size_bytes Block unit used for bandwidth.\n";
  out += "# TYPE bpsio_block_size_bytes gauge\n";
  out += "bpsio_block_size_bytes " +
         std::to_string(static_cast<unsigned long long>(block_size_)) + "\n";

  out += "# HELP bpsio_window_bps Windowed BPS (blocks per second of busy "
         "time) per tenant; tenant=\"all\" is the fleet stream.\n";
  out += "# TYPE bpsio_window_bps gauge\n";
  window_gauges(out, all.name, all.window_records, all.window_blocks,
                all.window_io_s, all.bps, all.iops, all.bw_bps, all.arpt_s);
  for (const TenantSnapshot& t : tenants) {
    window_gauges(out, t.name, t.window_records, t.window_blocks,
                  t.window_io_s, t.bps, t.iops, t.bw_bps, t.arpt_s);
  }
  return out;
}

std::string TenantShards::csv_snapshot() const {
  const std::vector<TenantSnapshot> tenants = snapshot();
  const TenantSnapshot all = snapshot_global();
  std::string out =
      "tenant,records_total,blocks_total,window_records,window_blocks,"
      "window_io_s,window_bps,window_iops,window_bw_Bps,window_arpt_s\n";
  csv_row(out, "all", all.records_total, all.blocks_total, all.window_records,
          all.window_blocks, all.window_io_s, all.bps, all.iops, all.bw_bps,
          all.arpt_s);
  for (const TenantSnapshot& t : tenants) {
    csv_row(out, t.name, t.records_total, t.blocks_total, t.window_records,
            t.window_blocks, t.window_io_s, t.bps, t.iops, t.bw_bps,
            t.arpt_s);
  }
  return out;
}

}  // namespace bpsio::collector
