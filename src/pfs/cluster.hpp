// PVFS2-like parallel file system: I/O servers, metadata service, cluster.
//
// Each I/O server is a node: a NIC, a request-processing CPU stage, and a
// local file system on its own block device, holding one "object" (a local
// file) per striped PFS file. The metadata server tracks the path -> (file
// id, layout, size, objects) mapping. Clients (pfs_client.hpp) speak a
// request/response protocol over the network model.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "device/block_device.hpp"
#include "device/hdd_model.hpp"
#include "device/ram_device.hpp"
#include "device/ssd_model.hpp"
#include "fs/local_fs.hpp"
#include "pfs/layout.hpp"
#include "pfs/network.hpp"
#include "sim/service_center.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace bpsio::pfs {

struct IoServerParams {
  /// Per-request server-side processing cost (decode, lookup, schedule).
  SimDuration request_overhead = SimDuration::from_us(120.0);
  std::uint32_t cpu_slots = 2;
};

class IoServer {
 public:
  IoServer(sim::Simulator& sim, Network& net, std::uint32_t id,
           std::unique_ptr<device::BlockDevice> dev,
           fs::LocalFsParams fs_params, IoServerParams params);

  std::uint32_t id() const { return id_; }
  Nic& nic() { return *nic_; }
  fs::LocalFileSystem& filesystem() { return *fs_; }
  device::BlockDevice& device() { return *dev_; }

  /// Create the server-local object backing one stripe set.
  Result<fs::FileHandle> create_object(const std::string& name, Bytes size);

  /// Serve one request against a local object: CPU stage then local FS I/O.
  void execute(device::DevOp op, fs::FileHandle object, Bytes offset,
               Bytes size, sim::JoinFn done);

  const sim::ServiceCenter& cpu() const { return cpu_; }

 private:
  sim::Simulator& sim_;
  std::uint32_t id_;
  std::unique_ptr<device::BlockDevice> dev_;
  std::unique_ptr<fs::LocalFileSystem> fs_;
  std::unique_ptr<Nic> nic_;
  sim::ServiceCenter cpu_;
  IoServerParams params_;
};

/// Metadata for one PFS file, shared by all clients.
struct PfsFileMeta {
  std::uint64_t file_id = 0;
  std::string path;
  StripeLayout layout;
  Bytes size = 0;
  /// Per-layout-position server-local object handles.
  std::vector<fs::FileHandle> objects;
};

class MetadataServer {
 public:
  Result<PfsFileMeta*> create(const std::string& path, StripeLayout layout);
  Result<PfsFileMeta*> lookup(const std::string& path);
  Status remove(const std::string& path);

  std::size_t file_count() const { return files_.size(); }

 private:
  std::map<std::string, std::unique_ptr<PfsFileMeta>> files_;
  std::uint64_t next_file_id_ = 1;
};

enum class DeviceKind { hdd, ssd, ram };

struct PfsClusterParams {
  std::uint32_t server_count = 8;
  DeviceKind device = DeviceKind::hdd;
  device::HddParams hdd{};
  device::SsdParams ssd{};
  device::RamParams ram{};
  fs::LocalFsParams server_fs{};
  IoServerParams server{};
  NetworkParams network{};
  Bytes default_stripe_size = 64 * kKiB;
  std::uint64_t seed = 42;
};

class PfsClient;

class PfsCluster {
 public:
  PfsCluster(sim::Simulator& sim, PfsClusterParams params);
  ~PfsCluster();

  sim::Simulator& simulator() { return sim_; }
  Network& network() { return net_; }
  MetadataServer& metadata() { return metadata_; }
  const PfsClusterParams& params() const { return params_; }

  std::uint32_t server_count() const {
    return static_cast<std::uint32_t>(servers_.size());
  }
  IoServer& server(std::uint32_t i) { return *servers_.at(i); }

  /// Create a client node attached to this cluster. The cluster owns it.
  PfsClient& make_client(const std::string& name);
  const std::vector<std::unique_ptr<PfsClient>>& clients() const {
    return clients_;
  }

  /// Layout covering all servers with the default stripe size.
  StripeLayout default_layout() const;

  /// Flush + drop caches on every server (pre-run discipline).
  void drop_all_caches();
  /// Bytes moved at the device level across all servers (diagnostic).
  Bytes device_bytes_moved() const;
  /// Sum of client-level moved bytes (feeds the bandwidth metric).
  Bytes client_bytes_moved() const;
  void reset_counters();

 private:
  std::unique_ptr<device::BlockDevice> make_device(std::uint64_t seed);

  sim::Simulator& sim_;
  PfsClusterParams params_;
  Network net_;
  MetadataServer metadata_;
  std::vector<std::unique_ptr<IoServer>> servers_;
  std::vector<std::unique_ptr<PfsClient>> clients_;
};

}  // namespace bpsio::pfs
