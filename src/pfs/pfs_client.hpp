// PFS client node: implements the generic fs::FileApi on top of the
// striped-server protocol, so the middleware layer cannot tell a parallel
// file system from a local one.
//
// Read protocol, per server run: request message (client tx -> server rx),
// server CPU stage, server-local FS read, data reply (server tx -> client
// rx). Write protocol: data transfer first, then server stage, then ack.
// A striped request completes when all of its server runs complete —
// concurrency across servers is where parallel speedup comes from, and
// shared-NIC/server queueing is where contention comes from.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "fs/file_api.hpp"
#include "pfs/cluster.hpp"

namespace bpsio::pfs {

class PfsClient final : public fs::FileApi {
 public:
  PfsClient(PfsCluster& cluster, std::string name);

  /// Layout applied by subsequent create() calls. Empty server list means
  /// "all servers" (PVFS2 default). This mirrors PVFS2's file attributes:
  /// the paper's Set-3a pins each file to one server this way.
  void set_create_layout(StripeLayout layout) { create_layout_ = std::move(layout); }
  const StripeLayout& create_layout() const { return create_layout_; }

  /// Per-path layout override; when set it takes precedence over the static
  /// create layout (used e.g. to pin file k to server k, Set 3a).
  // Configuration, not an event path: set once with the testbed and called
  // once per create(), so it stays a copyable std::function.
  // bpsio-lint: allow(std-function-event-path)
  using LayoutPolicy = std::function<StripeLayout(const std::string& path)>;
  void set_layout_policy(LayoutPolicy policy) { layout_policy_ = std::move(policy); }

  Result<fs::FileHandle> create(const std::string& path,
                                Bytes initial_size) override;
  Result<fs::FileHandle> open(const std::string& path) override;
  Result<Bytes> size_of(fs::FileHandle h) const override;
  Status close(fs::FileHandle h) override;
  Status remove(const std::string& path) override;

  void read(fs::FileHandle h, Bytes offset, Bytes size,
            fs::IoDoneFn done) override;
  void write(fs::FileHandle h, Bytes offset, Bytes size,
             fs::IoDoneFn done) override;
  void flush(fs::FlushDoneFn done) override;
  void drop_caches() override;

  Bytes bytes_moved() const override { return moved_; }
  void reset_counters() override { moved_ = 0; }

  std::string describe() const override;

  Nic& nic() { return *nic_; }
  const std::string& name() const { return name_; }

 private:
  PfsFileMeta* meta_of(fs::FileHandle h) const;
  void do_runs(device::DevOp op, PfsFileMeta& meta,
               const std::vector<ServerRun>& runs, Bytes total,
               fs::IoDoneFn done);

  PfsCluster& cluster_;
  std::string name_;
  std::unique_ptr<Nic> nic_;
  StripeLayout create_layout_;
  LayoutPolicy layout_policy_;
  std::map<std::uint32_t, PfsFileMeta*> handles_;
  std::uint32_t next_handle_ = 1;
  Bytes moved_ = 0;
};

}  // namespace bpsio::pfs
