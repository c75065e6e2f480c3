#include <gtest/gtest.h>

#include <optional>

#include "device/hdd_model.hpp"
#include "device/ram_device.hpp"
#include "fs/local_fs.hpp"
#include "sim/simulator.hpp"

namespace bpsio::fs {
namespace {

struct Fixture {
  sim::Simulator sim;
  device::RamDevice dev{sim, device::RamParams{.capacity = 64 * kMiB}};
  std::optional<LocalFileSystem> fs;

  explicit Fixture(LocalFsParams params = {}) { fs.emplace(sim, dev, params); }

  IoOutcome read(FileHandle h, Bytes off, Bytes size) {
    IoOutcome out{false, 0};
    fs->read(h, off, size, [&](IoOutcome o) { out = o; });
    sim.run();
    return out;
  }
  IoOutcome write(FileHandle h, Bytes off, Bytes size) {
    IoOutcome out{false, 0};
    fs->write(h, off, size, [&](IoOutcome o) { out = o; });
    sim.run();
    return out;
  }
};

TEST(LocalFs, CreateOpenCloseRemove) {
  Fixture f;
  auto h = f.fs->create("/a", 4096);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(f.fs->size_of(*h).value(), 4096u);
  EXPECT_EQ(f.fs->create("/a", 1).code(), Errc::already_exists);
  auto h2 = f.fs->open("/a");
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(h2->id, h->id);  // independent handles
  EXPECT_TRUE(f.fs->close(*h2).ok());
  EXPECT_FALSE(f.fs->close(*h2).ok());  // double close
  EXPECT_EQ(f.fs->open("/missing").code(), Errc::not_found);
  EXPECT_TRUE(f.fs->remove("/a").ok());
  EXPECT_EQ(f.fs->open("/a").code(), Errc::not_found);
  EXPECT_EQ(f.fs->remove("/a").code(), Errc::not_found);
}

TEST(LocalFs, ReadClipsAtEof) {
  Fixture f;
  auto h = f.fs->create("/a", 10000);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(f.read(*h, 0, 4096).bytes, 4096u);
  EXPECT_EQ(f.read(*h, 8000, 4096).bytes, 2000u);  // clipped
  EXPECT_EQ(f.read(*h, 10000, 1).bytes, 0u);       // at EOF
  EXPECT_EQ(f.read(*h, 20000, 1).bytes, 0u);       // past EOF
  EXPECT_TRUE(f.read(*h, 20000, 1).ok);            // POSIX: 0 bytes, success
}

TEST(LocalFs, ReadZeroBytes) {
  Fixture f;
  auto h = f.fs->create("/a", 100);
  EXPECT_EQ(f.read(*h, 0, 0).bytes, 0u);
}

TEST(LocalFs, BadHandleFails) {
  Fixture f;
  EXPECT_FALSE(f.read(FileHandle{999}, 0, 10).ok);
  EXPECT_FALSE(f.write(FileHandle{999}, 0, 10).ok);
  EXPECT_FALSE(f.fs->size_of(FileHandle{999}).ok());
}

TEST(LocalFs, WriteExtendsFile) {
  Fixture f;
  auto h = f.fs->create("/a", 0);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(f.fs->size_of(*h).value(), 0u);
  EXPECT_EQ(f.write(*h, 0, 5000).bytes, 5000u);
  EXPECT_EQ(f.fs->size_of(*h).value(), 5000u);
  EXPECT_EQ(f.write(*h, 100000, 100).bytes, 100u);  // sparse-style extend
  EXPECT_EQ(f.fs->size_of(*h).value(), 100100u);
  EXPECT_EQ(f.read(*h, 0, 200000).bytes, 100100u);
}

TEST(LocalFs, MovedBytesCountDeviceTraffic) {
  LocalFsParams params;
  params.page_size = 4096;
  Fixture f(params);
  auto h = f.fs->create("/a", 64 * kKiB);
  f.read(*h, 0, 64 * kKiB);
  // Page-granular fetch of the whole range.
  EXPECT_EQ(f.fs->bytes_moved(), 64u * kKiB);
  f.fs->reset_counters();
  EXPECT_EQ(f.fs->bytes_moved(), 0u);
}

TEST(LocalFs, CachedRereadMovesNothing) {
  Fixture f;
  auto h = f.fs->create("/a", 64 * kKiB);
  f.read(*h, 0, 64 * kKiB);
  const Bytes first = f.fs->bytes_moved();
  f.read(*h, 0, 64 * kKiB);
  EXPECT_EQ(f.fs->bytes_moved(), first);  // all hits
  EXPECT_GT(f.fs->cache()->stats().hits, 0u);
}

TEST(LocalFs, DropCachesForcesRefetch) {
  Fixture f;
  auto h = f.fs->create("/a", 64 * kKiB);
  f.read(*h, 0, 64 * kKiB);
  const Bytes first = f.fs->bytes_moved();
  f.fs->drop_caches();
  f.read(*h, 0, 64 * kKiB);
  EXPECT_EQ(f.fs->bytes_moved(), 2 * first);
}

TEST(LocalFs, UncachedModeAlwaysHitsDevice) {
  LocalFsParams params;
  params.cache_enabled = false;
  Fixture f(params);
  auto h = f.fs->create("/a", 64 * kKiB);
  f.read(*h, 0, 64 * kKiB);
  f.read(*h, 0, 64 * kKiB);
  EXPECT_EQ(f.fs->bytes_moved(), 128u * kKiB);
  EXPECT_EQ(f.fs->cache(), nullptr);
}

TEST(LocalFs, WriteThroughInsertsCleanPages) {
  Fixture f;
  auto h = f.fs->create("/a", 0);
  f.write(*h, 0, 16 * kKiB);
  EXPECT_EQ(f.fs->bytes_moved(), 16u * kKiB);
  // Re-read hits cache: no extra device traffic.
  f.read(*h, 0, 16 * kKiB);
  EXPECT_EQ(f.fs->bytes_moved(), 16u * kKiB);
}

TEST(LocalFs, WriteBackDefersDeviceWrites) {
  LocalFsParams params;
  params.write_back = true;
  Fixture f(params);
  auto h = f.fs->create("/a", 0);
  f.write(*h, 0, 16 * kKiB);
  EXPECT_EQ(f.fs->bytes_moved(), 0u);  // dirty pages only
  bool flushed = false;
  f.fs->flush([&]() { flushed = true; });
  f.sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(f.fs->bytes_moved(), 16u * kKiB);
  // Second flush is a no-op.
  f.fs->flush([]() {});
  f.sim.run();
  EXPECT_EQ(f.fs->bytes_moved(), 16u * kKiB);
}

TEST(LocalFs, WriteBackEvictionWritesBack) {
  LocalFsParams params;
  params.write_back = true;
  params.cache_capacity = 8 * 4096;  // 8 pages
  Fixture f(params);
  auto h = f.fs->create("/a", 0);
  // Dirty far more than the cache holds; evictions must hit the device.
  f.write(*h, 0, 64 * 4096);
  EXPECT_GT(f.fs->bytes_moved(), 0u);
}

TEST(LocalFs, ReadaheadPrefetchesSequentialStreams) {
  LocalFsParams params;
  params.readahead = 64 * kKiB;
  Fixture f(params);
  auto h = f.fs->create("/a", 1 * kMiB);
  f.read(*h, 0, 16 * kKiB);
  // The fetch pulled the requested pages plus the readahead window.
  EXPECT_GE(f.fs->bytes_moved(), 80u * kKiB);
  // The next sequential read is already resident.
  const Bytes before = f.fs->bytes_moved();
  f.read(*h, 16 * kKiB, 16 * kKiB);
  EXPECT_GE(f.fs->bytes_moved(), before);  // may top up readahead
  EXPECT_GT(f.fs->cache()->stats().hits, 0u);
}

TEST(LocalFs, FaultyDevicePropagatesFailure) {
  sim::Simulator sim;
  device::HddParams hdd_params;
  hdd_params.capacity = 16 * kMiB;
  hdd_params.faults.failure_rate = 1.0;
  device::HddModel dev(sim, hdd_params);
  LocalFileSystem fs(sim, dev);
  auto h = fs.create("/a", 4096);
  ASSERT_TRUE(h.ok());
  IoOutcome out{true, 1};
  fs.read(*h, 0, 4096, [&](IoOutcome o) { out = o; });
  sim.run();
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.bytes, 0u);
  EXPECT_EQ(fs.bytes_moved(), 0u);
}

TEST(LocalFs, OutOfSpaceSurfacesOnCreate) {
  sim::Simulator sim;
  device::RamDevice dev(sim, device::RamParams{.capacity = 1 * kMiB});
  LocalFileSystem fs(sim, dev);
  EXPECT_EQ(fs.create("/big", 2 * kMiB).code(), Errc::out_of_space);
}

TEST(LocalFs, OutOfSpaceFailsGrowingWrite) {
  sim::Simulator sim;
  device::RamDevice dev(sim, device::RamParams{.capacity = 1 * kMiB});
  LocalFileSystem fs(sim, dev);
  auto h = fs.create("/a", 0);
  ASSERT_TRUE(h.ok());
  IoOutcome out{true, 1};
  fs.write(*h, 0, 2 * kMiB, [&](IoOutcome o) { out = o; });
  sim.run();
  EXPECT_FALSE(out.ok);
}

TEST(LocalFs, RemoveReleasesSpace) {
  sim::Simulator sim;
  device::RamDevice dev(sim, device::RamParams{.capacity = 1 * kMiB});
  LocalFileSystem fs(sim, dev);
  ASSERT_TRUE(fs.create("/a", 512 * kKiB).ok());
  EXPECT_EQ(fs.create("/b", 768 * kKiB).code(), Errc::out_of_space);
  ASSERT_TRUE(fs.remove("/a").ok());
  EXPECT_TRUE(fs.create("/b", 768 * kKiB).ok());
}

TEST(LocalFs, RemoveWithDirtyCachedPagesIsSafe) {
  LocalFsParams params;
  params.write_back = true;
  Fixture f(params);
  auto h = f.fs->create("/doomed", 0);
  ASSERT_TRUE(h.ok());
  f.write(*h, 0, 64 * kKiB);  // dirty pages only, nothing on the device
  ASSERT_TRUE(f.fs->close(*h).ok());
  ASSERT_TRUE(f.fs->remove("/doomed").ok());
  // Flushing after removal must not touch the dead inode.
  bool flushed = false;
  f.fs->flush([&]() { flushed = true; });
  f.sim.run();
  EXPECT_TRUE(flushed);
  // And the space is reusable.
  EXPECT_TRUE(f.fs->create("/next", 32 * kMiB).ok());
}

// remove() drops a file's pages; a read or write-through write already in
// flight must not bring them back when it completes.
TEST(LocalFs, InFlightIoOfRemovedFilesLeavesNoPages) {
  Fixture f;
  auto r = f.fs->create("/read", 1 * kMiB);
  auto w = f.fs->create("/written", 0);
  ASSERT_TRUE(r.ok() && w.ok());
  int done = 0;
  f.fs->read(*r, 0, 256 * kKiB, [&](IoOutcome) { ++done; });
  f.fs->write(*w, 0, 256 * kKiB, [&](IoOutcome) { ++done; });
  ASSERT_TRUE(f.fs->close(*r).ok());
  ASSERT_TRUE(f.fs->close(*w).ok());
  ASSERT_TRUE(f.fs->remove("/read").ok());
  ASSERT_TRUE(f.fs->remove("/written").ok());
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.fs->cache()->resident_pages(), 0u);
}

TEST(LocalFs, FragmentedExtentsStillMapCorrectly) {
  LocalFsParams params;
  params.max_extent = 8 * kKiB;  // force many extents per file
  Fixture f(params);
  auto h = f.fs->create("/a", 256 * kKiB);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(f.read(*h, 100, 200000).bytes, 200000u);
  EXPECT_EQ(f.fs->bytes_moved() % 4096, 0u);  // page-granular fetches
}

}  // namespace
}  // namespace bpsio::fs
