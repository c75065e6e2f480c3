#include "fs/local_fs.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace bpsio::fs {

namespace {

Bytes round_up(Bytes v, Bytes unit) { return (v + unit - 1) / unit * unit; }

}  // namespace

LocalFileSystem::LocalFileSystem(sim::Simulator& sim, device::BlockDevice& dev,
                                 LocalFsParams params)
    : sim_(sim),
      dev_(dev),
      params_(params),
      allocator_(0, dev.capacity(), params.max_extent) {
  if (params_.cache_enabled) {
    cache_ = std::make_unique<PageCache>(params_.cache_capacity,
                                         params_.page_size);
  }
}

std::string LocalFileSystem::describe() const {
  return "localfs(" + dev_.describe() + ")";
}

Result<FileHandle> LocalFileSystem::create(const std::string& path,
                                           Bytes initial_size) {
  if (names_.count(path)) {
    return Error{Errc::already_exists, path};
  }
  Inode inode;
  inode.path = path;
  if (initial_size > 0) {
    inode.alloc_size = round_up(initial_size, params_.page_size);
    auto extents = allocator_.allocate(inode.alloc_size);
    if (!extents) return extents.error();
    inode.extents = std::move(extents).value();
    inode.size = initial_size;
  }
  rebuild_logical_index(inode);
  const auto idx = static_cast<std::uint32_t>(inodes_.size());
  inodes_.push_back(std::move(inode));
  names_[path] = idx;
  return open_inode(idx);
}

Result<FileHandle> LocalFileSystem::open(const std::string& path) {
  const auto it = names_.find(path);
  if (it == names_.end()) return Error{Errc::not_found, path};
  return open_inode(it->second);
}

Result<FileHandle> LocalFileSystem::open_inode(std::uint32_t inode_idx) {
  const FileHandle h{next_handle_++};
  open_files_[h.id] = OpenFile{inode_idx, 0};
  return h;
}

LocalFileSystem::Inode* LocalFileSystem::inode_of(FileHandle h) {
  const auto it = open_files_.find(h.id);
  if (it == open_files_.end()) return nullptr;
  auto& slot = inodes_[it->second.inode];
  return slot ? &*slot : nullptr;
}

const LocalFileSystem::Inode* LocalFileSystem::inode_of(FileHandle h) const {
  const auto it = open_files_.find(h.id);
  if (it == open_files_.end()) return nullptr;
  const auto& slot = inodes_[it->second.inode];
  return slot ? &*slot : nullptr;
}

Result<Bytes> LocalFileSystem::size_of(FileHandle h) const {
  const Inode* inode = inode_of(h);
  if (!inode) return Error{Errc::not_found, "bad handle"};
  return inode->size;
}

Status LocalFileSystem::close(FileHandle h) {
  return open_files_.erase(h.id) ? Status{} : Status{Errc::not_found, "bad handle"};
}

Status LocalFileSystem::remove(const std::string& path) {
  const auto it = names_.find(path);
  if (it == names_.end()) return Status{Errc::not_found, path};
  const std::uint32_t idx = it->second;
  auto& slot = inodes_[idx];
  if (slot) {
    allocator_.release(slot->extents);
    if (cache_) cache_->invalidate_file(idx);
    slot.reset();
  }
  names_.erase(it);
  return {};
}

void LocalFileSystem::rebuild_logical_index(Inode& inode) {
  inode.extent_logical_start.clear();
  inode.extent_logical_start.reserve(inode.extents.size());
  Bytes logical = 0;
  for (const auto& e : inode.extents) {
    inode.extent_logical_start.push_back(logical);
    logical += e.length;
  }
}

Status LocalFileSystem::grow(Inode& inode, Bytes new_size) {
  const Bytes new_alloc = round_up(new_size, params_.page_size);
  if (new_alloc > inode.alloc_size) {
    auto extents = allocator_.allocate(new_alloc - inode.alloc_size);
    if (!extents) return extents.error();
    for (auto& e : extents.value()) {
      // Merge with the trailing extent when physically adjacent.
      if (!inode.extents.empty() &&
          inode.extents.back().device_offset + inode.extents.back().length ==
              e.device_offset) {
        inode.extents.back().length += e.length;
      } else {
        inode.extents.push_back(e);
      }
    }
    inode.alloc_size = new_alloc;
    rebuild_logical_index(inode);
  }
  inode.size = std::max(inode.size, new_size);
  return {};
}

std::vector<LocalFileSystem::DevSegment> LocalFileSystem::map_range(
    const Inode& inode, Bytes offset, Bytes length) const {
  std::vector<DevSegment> segments;
  if (length == 0) return segments;
  BPSIO_CHECK(offset + length <= inode.alloc_size,
              "range [%llu, %llu) beyond allocation of %llu bytes",
              static_cast<unsigned long long>(offset),
              static_cast<unsigned long long>(offset + length),
              static_cast<unsigned long long>(inode.alloc_size));
  // Locate the first extent containing `offset`.
  auto it = std::upper_bound(inode.extent_logical_start.begin(),
                             inode.extent_logical_start.end(), offset);
  std::size_t idx = static_cast<std::size_t>(
      std::distance(inode.extent_logical_start.begin(), it)) - 1;
  Bytes remaining = length;
  Bytes cur = offset;
  while (remaining > 0) {
    BPSIO_DCHECK(idx < inode.extents.size(), "extent walk out of range");
    const Extent& e = inode.extents[idx];
    const Bytes within = cur - inode.extent_logical_start[idx];
    const Bytes avail = e.length - within;
    Bytes take = std::min(avail, remaining);
    Bytes dev_off = e.device_offset + within;
    // Split at the device-command ceiling.
    while (take > 0) {
      const Bytes chunk = std::min(take, params_.max_device_io);
      segments.push_back(DevSegment{dev_off, chunk});
      dev_off += chunk;
      take -= chunk;
      remaining -= chunk;
      cur += chunk;
    }
    ++idx;
  }
  return segments;
}

void LocalFileSystem::submit_segments(device::DevOp op,
                                      const std::vector<DevSegment>& segments,
                                      sim::JoinFn done) {
  sim::fan_out(
      sim_, segments.size(),
      [&](std::uint64_t i, sim::JoinFn one_done) {
        const DevSegment seg = segments[i];
        dev_.submit(op, seg.device_offset, seg.length,
                    [this, seg, one_done = std::move(one_done)](
                        device::DevResult r) {
                      if (r.ok) moved_ += seg.length;
                      one_done(r.ok);
                    });
      },
      std::move(done));
}

void LocalFileSystem::read_uncached(const Inode& inode, Bytes offset,
                                    Bytes length, IoDoneFn done) {
  submit_segments(device::DevOp::read, map_range(inode, offset, length),
                  [length, done = std::move(done)](bool ok) {
                    done(IoOutcome{ok, ok ? length : 0});
                  });
}

void LocalFileSystem::read(FileHandle h, Bytes offset, Bytes size,
                           IoDoneFn done) {
  const Inode* inode = inode_of(h);
  if (!inode) {
    sim_.schedule_now([done = std::move(done)]() { done({false, 0}); });
    return;
  }
  // POSIX semantics: clip at EOF, 0 bytes at/after EOF.
  if (offset >= inode->size || size == 0) {
    sim_.schedule_now([done = std::move(done)]() { done({true, 0}); });
    return;
  }
  const Bytes end = std::min(offset + size, inode->size);
  const Bytes length = end - offset;

  if (!cache_) {
    read_uncached(*inode, offset, length, std::move(done));
    return;
  }

  // Sequential readahead: extend the *fetched* range past the requested end.
  auto& of = open_files_.find(h.id)->second;
  Bytes fetch_end = end;
  if (params_.readahead > 0 && offset == of.last_sequential_end) {
    fetch_end = std::min(end + params_.readahead, inode->size);
  }
  of.last_sequential_end = end;

  const Bytes ps = params_.page_size;
  const std::uint64_t first_page = offset / ps;
  const std::uint64_t last_page = (fetch_end - 1) / ps;
  const std::uint32_t file_id = open_files_.find(h.id)->second.inode;
  const auto misses =
      cache_->probe(file_id, first_page, last_page - first_page + 1);

  if (misses.empty()) {
    sim_.schedule_now([length, done = std::move(done)]() {
      done({true, length});
    });
    return;
  }

  sim::fan_out(
      sim_, misses.size(),
      [&](std::uint64_t i, sim::JoinFn one_done) {
        const PageRun run = misses[i];
        const Bytes run_off = run.first_page * params_.page_size;
        const Bytes run_len = std::min(run.page_count * params_.page_size,
                                       inode->alloc_size - run_off);
        submit_segments(
            device::DevOp::read, map_range(*inode, run_off, run_len),
            [this, file_id, run, one_done = std::move(one_done)](bool ok) {
              if (ok && inodes_[file_id]) {  // not removed while in flight
                // Insertions may evict dirty pages; write those back.
                writeback_runs(cache_->insert(file_id, run.first_page,
                                              run.page_count, false));
              }
              one_done(ok);
            });
      },
      [length, done = std::move(done)](bool ok) {
        done({ok, ok ? length : 0});
      });
}

void LocalFileSystem::write_out(const Inode& inode, Bytes offset, Bytes length,
                                sim::JoinFn done) {
  submit_segments(device::DevOp::write, map_range(inode, offset, length),
                  std::move(done));
}

void LocalFileSystem::writeback_runs(const std::vector<PageRun>& runs) {
  for (const auto& run : runs) {
    const auto& slot = inodes_[run.file_id];
    if (!slot) continue;  // file removed while pages were cached
    const Bytes off = run.first_page * params_.page_size;
    const Bytes len = std::min(run.page_count * params_.page_size,
                               slot->alloc_size - off);
    // Background write-back: nothing waits on it.
    write_out(*slot, off, len, [](bool) {});
  }
}

void LocalFileSystem::write(FileHandle h, Bytes offset, Bytes size,
                            IoDoneFn done) {
  Inode* inode = inode_of(h);
  if (!inode) {
    sim_.schedule_now([done = std::move(done)]() { done({false, 0}); });
    return;
  }
  if (size == 0) {
    sim_.schedule_now([done = std::move(done)]() { done({true, 0}); });
    return;
  }
  if (const Status grown = grow(*inode, offset + size); !grown.ok()) {
    BPSIO_WARN("write failed to grow %s: %s", inode->path.c_str(),
               grown.to_string().c_str());
    sim_.schedule_now([done = std::move(done)]() { done({false, 0}); });
    return;
  }

  const std::uint32_t file_id = open_files_.find(h.id)->second.inode;
  const Bytes ps = params_.page_size;
  const std::uint64_t first_page = offset / ps;
  const std::uint64_t last_page = (offset + size - 1) / ps;

  if (cache_ && params_.write_back) {
    // Write-back: dirty the pages, complete immediately; evictions trigger
    // background device writes.
    writeback_runs(cache_->insert(file_id, first_page,
                                  last_page - first_page + 1, true));
    sim_.schedule_now([size, done = std::move(done)]() { done({true, size}); });
    return;
  }

  // Write-through: the device write completes the operation; pages are
  // inserted clean so re-reads hit.
  write_out(*inode, offset, size,
            [this, file_id, first_page, last_page, size,
             done = std::move(done)](bool ok) {
              // A file removed while the write was in flight stays out of
              // the cache.
              if (ok && cache_ && inodes_[file_id]) {
                writeback_runs(cache_->insert(file_id, first_page,
                                              last_page - first_page + 1,
                                              false));
              }
              done({ok, ok ? size : 0});
            });
}

void LocalFileSystem::flush(FlushDoneFn done) {
  if (!cache_) {
    sim_.schedule_now(std::move(done));
    return;
  }
  const auto dirty = cache_->collect_dirty();
  if (dirty.empty()) {
    sim_.schedule_now(std::move(done));
    return;
  }
  // Write-back failures are not reported: flush completes either way.
  sim::fan_out(
      sim_, dirty.size(),
      [&](std::uint64_t i, sim::JoinFn one_done) {
        const PageRun& run = dirty[i];
        const auto& slot = inodes_[run.file_id];
        if (!slot) {
          sim_.schedule_now(
              [one_done = std::move(one_done)]() { one_done(true); });
          return;
        }
        const Bytes off = run.first_page * params_.page_size;
        const Bytes len = std::min(run.page_count * params_.page_size,
                                   slot->alloc_size - off);
        write_out(*slot, off, len, std::move(one_done));
      },
      [done = std::move(done)](bool) { done(); });
}

void LocalFileSystem::drop_caches() {
  if (cache_) cache_->invalidate_all();
  for (auto& [id, of] : open_files_) of.last_sequential_end = 0;
  dev_.reset_state();
}

}  // namespace bpsio::fs
