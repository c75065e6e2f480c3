// System-level property tests.
//
// The central invariant of the BPS design: B — the application-required
// blocks — depends ONLY on the application's requests, never on how the
// I/O stack chooses to serve them. Caches, readahead, sieving, prefetch,
// schedulers, stripe layouts: all of them change execution time, moved
// bytes, and T, but none of them may change B. A metric built on B is the
// paper's whole argument; these sweeps enforce it across randomized
// configuration combinations.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "fs/page_cache.hpp"
#include "page_cache_oracle.hpp"
#include "workload/registry.hpp"

namespace bpsio::fs {
// Readable page-run vectors in failure messages.
void PrintTo(const PageRun& r, std::ostream* os) {
  *os << "(" << r.file_id << ":" << r.first_page << "+" << r.page_count << ")";
}
}  // namespace bpsio::fs

namespace bpsio {
namespace {

class BInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BInvariance, StackKnobsNeverChangeB) {
  Rng rng(GetParam());

  // A randomized application.
  workload::IozoneConfig wl;
  const auto modes = {workload::IozoneConfig::Mode::read,
                      workload::IozoneConfig::Mode::reread,
                      workload::IozoneConfig::Mode::backward_read,
                      workload::IozoneConfig::Mode::stride_read,
                      workload::IozoneConfig::Mode::write};
  wl.mode = *(modes.begin() + static_cast<long>(rng.uniform_u64(modes.size())));
  wl.file_size = (1 + rng.uniform_u64(16)) * kMiB;
  wl.record_size = (1ULL << (12 + rng.uniform_u64(7)));  // 4 KiB .. 256 KiB
  wl.processes = static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
  wl.seed = GetParam();

  std::optional<std::uint64_t> expected_blocks;
  // Sweep stack configurations; B must be identical in every one.
  for (int variant = 0; variant < 4; ++variant) {
    core::TestbedConfig cfg;
    cfg.seed = GetParam();
    switch (variant) {
      case 0:  // local HDD, cache on
        cfg = core::local_hdd_testbed(GetParam());
        cfg.hdd.capacity = 8 * kGiB;
        break;
      case 1:  // local HDD, cache off + readahead irrelevant + elevator
        cfg = core::local_hdd_testbed(GetParam());
        cfg.hdd.capacity = 8 * kGiB;
        cfg.hdd.scheduler = device::HddScheduler::elevator;
        cfg.local_fs.cache_enabled = false;
        break;
      case 2:  // local SSD with aggressive readahead
        cfg = core::local_ssd_testbed(GetParam());
        cfg.local_fs.readahead = 1 * kMiB;
        break;
      case 3:  // PFS with prefetching middleware
        cfg = core::pvfs_testbed(2, pfs::DeviceKind::ram, 1, GetParam());
        break;
    }
    core::Testbed testbed(cfg);
    workload::IozoneConfig wl_variant = wl;
    if (variant == 3) {
      mio::PrefetchConfig pf;
      pf.window = 1 * kMiB;
      wl_variant.prefetch = pf;
    }
    const auto wkl = workload::make_workload(wl_variant);
    const auto run = wkl->run(testbed.env());
    const auto b = run.collector.total_blocks();
    ASSERT_GT(b, 0u);
    if (!expected_blocks) {
      expected_blocks = b;
    } else {
      EXPECT_EQ(b, *expected_blocks) << "variant " << variant;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomApps, BInvariance,
                         ::testing::Range<std::uint64_t>(0, 12));

class SievingInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SievingInvariance, SievingChangesMovedBytesNotB) {
  Rng rng(GetParam() ^ 0x5eedULL);
  workload::HpioConfig cfg;
  cfg.region_count = 512 + rng.uniform_u64(2048);
  cfg.region_size = 64 + rng.uniform_u64(512);
  cfg.region_spacing = 1 + rng.uniform_u64(1024);
  cfg.processes = static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
  cfg.regions_per_call = 512;

  std::uint64_t b_on = 0, b_off = 0;
  Bytes moved_on = 0, moved_off = 0;
  for (const bool sieving : {true, false}) {
    core::Testbed testbed(
        core::pvfs_testbed(2, pfs::DeviceKind::ram, cfg.processes, 42));
    auto wl = cfg;
    wl.sieving.enabled = sieving;
    const auto wkl = workload::make_workload(wl);
    const auto run = wkl->run(testbed.env());
    (sieving ? b_on : b_off) = run.collector.total_blocks();
    (sieving ? moved_on : moved_off) = testbed.bytes_moved();
  }
  EXPECT_EQ(b_on, b_off);
  // Sieving reads at least as much as the naive path (holes included).
  EXPECT_GE(moved_on, moved_off);
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, SievingInvariance,
                         ::testing::Range<std::uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Page cache vs the per-page LRU it replaced (page_cache_oracle.hpp), driven
// in lockstep: every return value, every stat and the resident count agree
// after every operation.
// ---------------------------------------------------------------------------
void expect_same_cache(const fs::PageCache& cache,
                       const fs::testing::PerPageCacheOracle& oracle) {
  const fs::CacheStats& got = cache.stats();
  const fs::CacheStats& want = oracle.stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.dirty_evictions, want.dirty_evictions);
  EXPECT_EQ(cache.resident_pages(), oracle.resident_pages());
}

class CacheModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheModel, MatchesReferenceLru) {
  Rng rng(GetParam() * 31 + 7);
  const std::uint64_t capacity = 1 + rng.uniform_u64(64);
  const auto files = static_cast<std::uint32_t>(1 + rng.uniform_u64(3));
  fs::PageCache cache(capacity * 4096, 4096);
  fs::testing::PerPageCacheOracle oracle(capacity * 4096, 4096);
  ASSERT_EQ(cache.capacity_pages(), oracle.capacity_pages());

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(step);
    const auto file = static_cast<std::uint32_t>(rng.uniform_u64(files));
    // Mostly short ranges, so pages stay resident across steps; one in four
    // up to 3x the capacity, so one insert can evict its own pages.
    const std::uint64_t count =
        1 + rng.uniform_u64(rng.uniform_u64(4) == 0 ? 3 * capacity
                                                    : capacity / 2 + 1);
    const std::uint64_t first = rng.uniform_u64(4 * capacity);
    const std::uint64_t op = rng.uniform_u64(100);
    if (op < 35) {
      ASSERT_EQ(cache.probe(file, first, count),
                oracle.probe(file, first, count));
    } else if (op < 80) {
      const bool dirty = op < 58;
      ASSERT_EQ(cache.insert(file, first, count, dirty),
                oracle.insert(file, first, count, dirty));
    } else if (op < 88) {
      ASSERT_EQ(cache.contains(file, first, count),
                oracle.contains(file, first, count));
    } else if (op < 94) {
      ASSERT_EQ(cache.collect_dirty(), oracle.collect_dirty());
    } else if (op < 99) {
      cache.invalidate_file(file);
      oracle.invalidate_file(file);
    } else {
      cache.invalidate_all();
      oracle.invalidate_all();
    }
    expect_same_cache(cache, oracle);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_LE(cache.resident_pages(), capacity);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CacheModel,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace bpsio
