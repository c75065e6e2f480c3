#include "pfs/pfs_client.hpp"

#include <algorithm>

#include "sim/sync.hpp"

namespace bpsio::pfs {

PfsClient::PfsClient(PfsCluster& cluster, std::string name)
    : cluster_(cluster),
      name_(std::move(name)),
      nic_(cluster.network().make_nic(name_)),
      create_layout_(cluster.default_layout()) {}

std::string PfsClient::describe() const {
  return "pfs(" + std::to_string(cluster_.server_count()) + " servers)";
}

Result<fs::FileHandle> PfsClient::create(const std::string& path,
                                         Bytes initial_size) {
  StripeLayout layout =
      layout_policy_ ? layout_policy_(path) : create_layout_;
  if (layout.servers.empty()) layout = cluster_.default_layout();
  for (const std::uint32_t srv : layout.servers) {
    if (srv >= cluster_.server_count()) {
      return Error{Errc::invalid_argument,
                   "layout names server " + std::to_string(srv)};
    }
  }
  auto meta = cluster_.metadata().create(path, layout);
  if (!meta) return meta.error();
  PfsFileMeta& m = **meta;
  m.size = initial_size;
  // One backing object per layout slot, sized for its share of the stripes.
  m.objects.reserve(m.layout.servers.size());
  for (std::uint32_t pos = 0; pos < m.layout.server_count(); ++pos) {
    const Bytes obj_size =
        std::max<Bytes>(server_object_size(m.layout, initial_size, pos), 1);
    auto obj = cluster_.server(m.layout.servers[pos])
                   .create_object("obj." + std::to_string(m.file_id) + "." +
                                      std::to_string(pos),
                                  obj_size);
    if (!obj) return obj.error();
    m.objects.push_back(*obj);
  }
  const fs::FileHandle h{next_handle_++};
  handles_[h.id] = &m;
  return h;
}

Result<fs::FileHandle> PfsClient::open(const std::string& path) {
  auto meta = cluster_.metadata().lookup(path);
  if (!meta) return meta.error();
  const fs::FileHandle h{next_handle_++};
  handles_[h.id] = *meta;
  return h;
}

PfsFileMeta* PfsClient::meta_of(fs::FileHandle h) const {
  const auto it = handles_.find(h.id);
  return it == handles_.end() ? nullptr : it->second;
}

Result<Bytes> PfsClient::size_of(fs::FileHandle h) const {
  const PfsFileMeta* m = meta_of(h);
  if (!m) return Error{Errc::not_found, "bad handle"};
  return m->size;
}

Status PfsClient::close(fs::FileHandle h) {
  return handles_.erase(h.id) ? Status{} : Status{Errc::not_found, "bad handle"};
}

Status PfsClient::remove(const std::string& path) {
  auto meta = cluster_.metadata().lookup(path);
  if (!meta) return Status{meta.error()};
  PfsFileMeta& m = **meta;
  for (std::uint32_t pos = 0; pos < m.layout.server_count(); ++pos) {
    (void)cluster_.server(m.layout.servers[pos])
        .filesystem()
        .remove("obj." + std::to_string(m.file_id) + "." + std::to_string(pos));
  }
  return cluster_.metadata().remove(path);
}

void PfsClient::do_runs(device::DevOp op, PfsFileMeta& meta,
                        const std::vector<ServerRun>& runs, Bytes total,
                        fs::IoDoneFn done) {
  auto& sim = cluster_.simulator();
  if (runs.empty()) {
    sim.schedule_now([done = std::move(done)]() { done({true, 0}); });
    return;
  }
  sim::fan_out(
      sim, runs.size(),
      [&](std::uint64_t i, sim::JoinFn one_done) {
        const ServerRun run = runs[i];
        IoServer& server = cluster_.server(meta.layout.servers[run.server]);
        const fs::FileHandle object = meta.objects[run.server];
        if (op == device::DevOp::read) {
          // request -> server stage + local read -> data reply
          cluster_.network().message(
              *nic_, server.nic(),
              [this, &server, object, run,
               one_done = std::move(one_done)]() mutable {
                server.execute(
                    device::DevOp::read, object, run.local_offset, run.length,
                    [this, &server, run,
                     one_done = std::move(one_done)](bool ok) mutable {
                      if (ok) moved_ += run.length;
                      cluster_.network().transfer(
                          server.nic(), *nic_, run.length,
                          [ok, one_done = std::move(one_done)]() {
                            one_done(ok);
                          });
                    });
              });
        } else {
          // data -> server stage + local write -> ack
          cluster_.network().transfer(
              *nic_, server.nic(), run.length,
              [this, &server, object, run,
               one_done = std::move(one_done)]() mutable {
                server.execute(
                    device::DevOp::write, object, run.local_offset,
                    run.length,
                    [this, &server, run,
                     one_done = std::move(one_done)](bool ok) mutable {
                      if (ok) moved_ += run.length;
                      cluster_.network().message(
                          server.nic(), *nic_,
                          [ok, one_done = std::move(one_done)]() {
                            one_done(ok);
                          });
                    });
              });
        }
      },
      [total, done = std::move(done)](bool ok) {
        done({ok, ok ? total : 0});
      });
}

void PfsClient::read(fs::FileHandle h, Bytes offset, Bytes size,
                     fs::IoDoneFn done) {
  PfsFileMeta* m = meta_of(h);
  auto& sim = cluster_.simulator();
  if (!m) {
    sim.schedule_now([done = std::move(done)]() { done({false, 0}); });
    return;
  }
  if (offset >= m->size || size == 0) {
    sim.schedule_now([done = std::move(done)]() { done({true, 0}); });
    return;
  }
  const Bytes length = std::min(offset + size, m->size) - offset;
  do_runs(device::DevOp::read, *m, split_range(m->layout, offset, length),
          length, std::move(done));
}

void PfsClient::write(fs::FileHandle h, Bytes offset, Bytes size,
                      fs::IoDoneFn done) {
  PfsFileMeta* m = meta_of(h);
  auto& sim = cluster_.simulator();
  if (!m) {
    sim.schedule_now([done = std::move(done)]() { done({false, 0}); });
    return;
  }
  if (size == 0) {
    sim.schedule_now([done = std::move(done)]() { done({true, 0}); });
    return;
  }
  m->size = std::max(m->size, offset + size);
  do_runs(device::DevOp::write, *m, split_range(m->layout, offset, size), size,
          std::move(done));
}

void PfsClient::flush(fs::FlushDoneFn done) {
  auto& sim = cluster_.simulator();
  const std::uint32_t n = cluster_.server_count();
  sim::fan_out(
      sim, n,
      [this](std::uint64_t i, sim::JoinFn one_done) {
        cluster_.server(static_cast<std::uint32_t>(i))
            .filesystem()
            .flush([one_done = std::move(one_done)]() { one_done(true); });
      },
      [done = std::move(done)](bool) { done(); });
}

void PfsClient::drop_caches() {
  for (std::uint32_t i = 0; i < cluster_.server_count(); ++i) {
    cluster_.server(i).filesystem().drop_caches();
  }
}

}  // namespace bpsio::pfs
