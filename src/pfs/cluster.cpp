#include "pfs/cluster.hpp"

#include "device/hdd_model.hpp"
#include "device/ram_device.hpp"
#include "device/ssd_model.hpp"
#include "pfs/pfs_client.hpp"

namespace bpsio::pfs {

IoServer::IoServer(sim::Simulator& sim, Network& net, std::uint32_t id,
                   std::unique_ptr<device::BlockDevice> dev,
                   fs::LocalFsParams fs_params, IoServerParams params)
    : sim_(sim),
      id_(id),
      dev_(std::move(dev)),
      nic_(net.make_nic("server" + std::to_string(id))),
      cpu_(sim, params.cpu_slots, "server" + std::to_string(id) + ".cpu"),
      params_(params) {
  fs_ = std::make_unique<fs::LocalFileSystem>(sim_, *dev_, fs_params);
}

Result<fs::FileHandle> IoServer::create_object(const std::string& name,
                                               Bytes size) {
  return fs_->create(name, size);
}

void IoServer::execute(device::DevOp op, fs::FileHandle object, Bytes offset,
                       Bytes size, sim::JoinFn done) {
  cpu_.submit(params_.request_overhead,
              [this, op, object, offset, size, done = std::move(done)](
                  SimTime, SimTime) mutable {
                auto fs_done = [done = std::move(done)](fs::IoOutcome out) {
                  done(out.ok);
                };
                if (op == device::DevOp::read) {
                  fs_->read(object, offset, size, std::move(fs_done));
                } else {
                  fs_->write(object, offset, size, std::move(fs_done));
                }
              });
}

Result<PfsFileMeta*> MetadataServer::create(const std::string& path,
                                            StripeLayout layout) {
  if (files_.count(path)) return Error{Errc::already_exists, path};
  auto meta = std::make_unique<PfsFileMeta>();
  meta->file_id = next_file_id_++;
  meta->path = path;
  meta->layout = std::move(layout);
  PfsFileMeta* raw = meta.get();
  files_[path] = std::move(meta);
  return raw;
}

Result<PfsFileMeta*> MetadataServer::lookup(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) return Error{Errc::not_found, path};
  return it->second.get();
}

Status MetadataServer::remove(const std::string& path) {
  return files_.erase(path) ? Status{} : Status{Errc::not_found, path};
}

PfsCluster::PfsCluster(sim::Simulator& sim, PfsClusterParams params)
    : sim_(sim), params_(std::move(params)), net_(sim, params_.network) {
  for (std::uint32_t i = 0; i < params_.server_count; ++i) {
    servers_.push_back(std::make_unique<IoServer>(
        sim_, net_, i, make_device(params_.seed + i), params_.server_fs,
        params_.server));
  }
}

PfsCluster::~PfsCluster() = default;

std::unique_ptr<device::BlockDevice> PfsCluster::make_device(
    std::uint64_t seed) {
  switch (params_.device) {
    case DeviceKind::hdd:
      return std::make_unique<device::HddModel>(sim_, params_.hdd, seed);
    case DeviceKind::ssd:
      return std::make_unique<device::SsdModel>(sim_, params_.ssd, seed);
    case DeviceKind::ram:
      return std::make_unique<device::RamDevice>(sim_, params_.ram);
  }
  return std::make_unique<device::RamDevice>(sim_, params_.ram);
}

PfsClient& PfsCluster::make_client(const std::string& name) {
  clients_.push_back(std::make_unique<PfsClient>(*this, name));
  return *clients_.back();
}

StripeLayout PfsCluster::default_layout() const {
  StripeLayout layout;
  layout.stripe_size = params_.default_stripe_size;
  for (std::uint32_t i = 0; i < params_.server_count; ++i) {
    layout.servers.push_back(i);
  }
  return layout;
}

void PfsCluster::drop_all_caches() {
  for (auto& s : servers_) s->filesystem().drop_caches();
}

Bytes PfsCluster::device_bytes_moved() const {
  Bytes total = 0;
  for (const auto& s : servers_) {
    total += s->device().stats().total_bytes();
  }
  return total;
}

Bytes PfsCluster::client_bytes_moved() const {
  Bytes total = 0;
  for (const auto& c : clients_) total += c->bytes_moved();
  return total;
}

void PfsCluster::reset_counters() {
  for (auto& s : servers_) {
    s->filesystem().reset_counters();
    s->device().clear_stats();
  }
  for (auto& c : clients_) c->reset_counters();
}

}  // namespace bpsio::pfs
