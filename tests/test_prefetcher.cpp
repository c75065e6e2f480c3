#include <gtest/gtest.h>

#include <functional>

#include "device/hdd_model.hpp"
#include "device/ram_device.hpp"
#include "fs/local_fs.hpp"
#include "mio/io_client.hpp"
#include "sim/simulator.hpp"

namespace bpsio::mio {
namespace {

struct Fixture {
  sim::Simulator sim;
  device::RamDevice dev{sim, device::RamParams{.capacity = 128 * kMiB}};
  fs::LocalFileSystem fs{sim, dev};
  ClientNode node{sim};
  IoClient client{node, fs, 1};

  explicit Fixture(PrefetchConfig cfg = {}) { client.enable_prefetch(cfg); }

  fs::FileHandle make_file(Bytes size) {
    auto h = client.create("/f", size);
    EXPECT_TRUE(h.ok());
    return *h;
  }
  fs::IoOutcome read(fs::FileHandle h, Bytes off, Bytes size) {
    fs::IoOutcome out{false, 0};
    client.read(h, off, size, [&](fs::IoOutcome o) { out = o; });
    sim.run();
    return out;
  }
};

PrefetchConfig small_windows() {
  PrefetchConfig cfg;
  cfg.window = 256 * kKiB;
  cfg.trigger_streak = 2;
  cfg.depth = 2;
  return cfg;
}

TEST(Prefetcher, SequentialStreamStartsHitting) {
  Fixture f(small_windows());
  auto h = f.make_file(16 * kMiB);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(f.read(h, static_cast<Bytes>(i) * 64 * kKiB, 64 * kKiB).bytes,
              64u * kKiB);
  }
  const auto& st = f.client.prefetcher()->stats();
  EXPECT_GT(st.prefetches_issued, 0u);
  EXPECT_GT(st.full_hits + st.wait_hits, 10u);
  EXPECT_LT(st.misses, 8u);
}

TEST(Prefetcher, RandomAccessNeverTriggers) {
  Fixture f(small_windows());
  auto h = f.make_file(16 * kMiB);
  // Alternating far-apart offsets: no sequential streak forms.
  for (int i = 0; i < 10; ++i) {
    const Bytes off = (i % 2) ? 8 * kMiB : 0;
    f.read(h, off + static_cast<Bytes>(i) * 4 * kKiB, 4 * kKiB);
  }
  EXPECT_EQ(f.client.prefetcher()->stats().prefetches_issued, 0u);
}

TEST(Prefetcher, FrontierStaysBounded) {
  Fixture f(small_windows());
  auto h = f.make_file(64 * kMiB);
  for (int i = 0; i < 16; ++i) {
    f.read(h, static_cast<Bytes>(i) * 64 * kKiB, 64 * kKiB);
  }
  const auto& st = f.client.prefetcher()->stats();
  // Consumption is 1 MiB; with depth 2 x 256 KiB the prefetched volume must
  // stay within consumption + depth * window (plus one window of slack).
  EXPECT_LE(st.bytes_prefetched, 1 * kMiB + 3 * 256 * kKiB);
}

TEST(Prefetcher, PrefetchTrafficIsNotRecorded) {
  Fixture f(small_windows());
  auto h = f.make_file(16 * kMiB);
  for (int i = 0; i < 16; ++i) {
    f.read(h, static_cast<Bytes>(i) * 64 * kKiB, 64 * kKiB);
  }
  // Only the 16 application accesses appear in the trace; prefetch reads
  // moved extra bytes at the FS level but produced no records.
  EXPECT_EQ(f.client.trace().size(), 16u);
  EXPECT_EQ(blocks_to_bytes(f.client.trace().total_blocks()), 16u * 64 * kKiB);
  EXPECT_GT(f.fs.bytes_moved(), 16u * 64 * kKiB);
}

TEST(Prefetcher, StopsAtEof) {
  Fixture f(small_windows());
  const Bytes file = 1 * kMiB;
  auto h = f.make_file(file);
  for (Bytes off = 0; off < file; off += 64 * kKiB) {
    f.read(h, off, 64 * kKiB);
  }
  // FS-level traffic must not grow far beyond the file (EOF windows clip
  // and prefetching stops after the first short read).
  EXPECT_LE(f.fs.bytes_moved(), file + 2 * 256 * kKiB);
}

TEST(Prefetcher, InvalidateForgetsState) {
  Fixture f(small_windows());
  auto h = f.make_file(16 * kMiB);
  for (int i = 0; i < 8; ++i) {
    f.read(h, static_cast<Bytes>(i) * 64 * kKiB, 64 * kKiB);
  }
  f.client.prefetcher();
  ASSERT_TRUE(f.client.close(h).ok());  // close() invalidates
  auto h2 = f.client.open("/f");
  ASSERT_TRUE(h2.ok());
  const auto misses_before = f.client.prefetcher()->stats().misses;
  f.fs.drop_caches();
  f.read(*h2, 0, 64 * kKiB);
  EXPECT_GT(f.client.prefetcher()->stats().misses, misses_before);
}

TEST(Prefetcher, HitsAreServedWithoutBackendTraffic) {
  Fixture f(small_windows());
  auto h = f.make_file(16 * kMiB);
  // Warm up until the window ahead is fetched.
  for (int i = 0; i < 8; ++i) {
    f.read(h, static_cast<Bytes>(i) * 64 * kKiB, 64 * kKiB);
  }
  f.sim.run();  // let outstanding prefetches land
  const Bytes moved_before = f.fs.bytes_moved();
  const auto hits_before = f.client.prefetcher()->stats().full_hits;
  // This read lies inside a completed window.
  EXPECT_EQ(f.read(h, 8 * 64 * kKiB, 64 * kKiB).bytes, 64u * kKiB);
  EXPECT_GT(f.client.prefetcher()->stats().full_hits, hits_before);
  // Only pipeline top-up traffic may have been added, no re-read of the
  // requested range (it was already counted).
  EXPECT_GE(f.fs.bytes_moved(), moved_before);
}

// Each read starts from the previous one's completion, so reads wait on
// in-flight windows. A window with waiting reads must outlive max_windows
// evictions: dropping it lost those reads and ended the run silently.
class ChainedReads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainedReads, EveryReadCompletesWhateverMaxWindows) {
  sim::Simulator sim;
  device::HddModel hdd(sim, device::HddParams{});
  fs::LocalFileSystem fs(sim, hdd);
  ClientNode node(sim);
  IoClient client(node, fs, 1);
  PrefetchConfig cfg = small_windows();
  cfg.max_windows = GetParam();
  client.enable_prefetch(cfg);
  auto h = client.create("/f", 16 * kMiB);
  ASSERT_TRUE(h.ok());

  constexpr int kReads = 32;
  constexpr Bytes kRead = 128 * kKiB;
  int completed = 0;
  std::function<void(int)> read_next = [&](int i) {
    client.read(*h, static_cast<Bytes>(i) * kRead, kRead,
                [&, i](fs::IoOutcome out) {
                  EXPECT_TRUE(out.ok);
                  EXPECT_EQ(out.bytes, kRead);
                  ++completed;
                  if (i + 1 < kReads) read_next(i + 1);
                });
  };
  read_next(0);
  sim.run();
  EXPECT_EQ(completed, kReads);
  EXPECT_EQ(client.trace().size(), static_cast<std::size_t>(kReads));
  EXPECT_GT(client.prefetcher()->stats().wait_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(MaxWindows, ChainedReads,
                         ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace bpsio::mio
