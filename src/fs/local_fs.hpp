// Simulated local file system on one block device.
//
// Extent-mapped files, an optional LRU page cache with sequential readahead,
// write-through or write-back policy. Plays the role ext3 played on the
// paper's compute nodes and I/O servers. All I/O is asynchronous through the
// discrete-event engine; there is no file data, only offsets/sizes/residency.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/block_device.hpp"
#include "fs/extent_allocator.hpp"
#include "fs/file_api.hpp"
#include "fs/page_cache.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace bpsio::fs {

struct LocalFsParams {
  Bytes page_size = 4 * kKiB;
  Bytes cache_capacity = 64 * kMiB;
  bool cache_enabled = true;
  /// false: write-through (device write completes the op) — the default, it
  /// matches the paper's flushed-cache measurement discipline.
  /// true: write-back (dirty pages, flushed explicitly or on eviction).
  bool write_back = false;
  /// Extra sequential readahead in bytes (0 = off). Readahead inflates
  /// FS-level moved bytes without changing application-required bytes —
  /// one of the two optimizations the paper says bandwidth mis-measures.
  Bytes readahead = 0;
  /// Large transfers are split into device commands of at most this size.
  Bytes max_device_io = 1 * kMiB;
  /// Allocator fragmentation knob (0 = contiguous extents when possible).
  Bytes max_extent = 0;
};

class LocalFileSystem final : public FileApi {
 public:
  LocalFileSystem(sim::Simulator& sim, device::BlockDevice& dev,
                  LocalFsParams params = {});

  Result<FileHandle> create(const std::string& path, Bytes initial_size) override;
  Result<FileHandle> open(const std::string& path) override;
  Result<Bytes> size_of(FileHandle h) const override;
  Status close(FileHandle h) override;
  Status remove(const std::string& path) override;

  void read(FileHandle h, Bytes offset, Bytes size, IoDoneFn done) override;
  void write(FileHandle h, Bytes offset, Bytes size, IoDoneFn done) override;
  void flush(FlushDoneFn done) override;
  void drop_caches() override;

  Bytes bytes_moved() const override { return moved_; }
  void reset_counters() override { moved_ = 0; }

  std::string describe() const override;

  const PageCache* cache() const { return cache_.get(); }
  const LocalFsParams& params() const { return params_; }
  device::BlockDevice& device() { return dev_; }

 private:
  struct Inode {
    std::string path;
    Bytes size = 0;        ///< logical size
    Bytes alloc_size = 0;  ///< page-rounded allocated size
    std::vector<Extent> extents;
    std::vector<Bytes> extent_logical_start;  ///< prefix offsets for mapping
  };
  struct OpenFile {
    std::uint32_t inode = 0;
    Bytes last_sequential_end = 0;  ///< readahead detection
  };

  struct DevSegment {
    Bytes device_offset;
    Bytes length;
  };

  Result<FileHandle> open_inode(std::uint32_t inode_idx);
  Inode* inode_of(FileHandle h);
  const Inode* inode_of(FileHandle h) const;
  Status grow(Inode& inode, Bytes new_size);
  void rebuild_logical_index(Inode& inode);

  /// Map a logical byte range to device segments (split at extent borders
  /// and at max_device_io).
  std::vector<DevSegment> map_range(const Inode& inode, Bytes offset,
                                    Bytes length) const;

  /// Issue device ops for all segments; invoke done(all_ok) at the end.
  void submit_segments(device::DevOp op,
                       const std::vector<DevSegment>& segments,
                       sim::JoinFn done);

  void read_uncached(const Inode& inode, Bytes offset, Bytes length,
                     IoDoneFn done);
  void write_out(const Inode& inode, Bytes offset, Bytes length,
                 sim::JoinFn done);
  /// Fire-and-forget write-back of evicted dirty pages.
  void writeback_runs(const std::vector<PageRun>& runs);

  sim::Simulator& sim_;
  device::BlockDevice& dev_;
  LocalFsParams params_;
  std::unique_ptr<PageCache> cache_;
  ExtentAllocator allocator_;

  std::map<std::string, std::uint32_t> names_;
  std::deque<std::optional<Inode>> inodes_;  // deque: stable addresses across create()
  std::map<std::uint32_t, OpenFile> open_files_;
  std::uint32_t next_handle_ = 1;
  Bytes moved_ = 0;
};

}  // namespace bpsio::fs
