#include <gtest/gtest.h>

#include "fs/page_cache.hpp"

namespace bpsio::fs {
namespace {

TEST(PageCache, MissesThenHits) {
  PageCache cache(16 * 4096, 4096);
  auto misses = cache.probe(1, 0, 4);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0], (PageRun{1, 0, 4}));
  EXPECT_TRUE(cache.insert(1, 0, 4, false).empty());
  EXPECT_TRUE(cache.probe(1, 0, 4).empty());
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PageCache, PartialResidencyYieldsMissRuns) {
  PageCache cache(64 * 4096, 4096);
  cache.insert(1, 2, 2, false);  // pages 2,3 resident
  const auto misses = cache.probe(1, 0, 8);
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0], (PageRun{1, 0, 2}));
  EXPECT_EQ(misses[1], (PageRun{1, 4, 4}));
}

TEST(PageCache, FilesAreIndependent) {
  PageCache cache(64 * 4096, 4096);
  cache.insert(1, 0, 4, false);
  EXPECT_FALSE(cache.contains(2, 0, 4));
  EXPECT_TRUE(cache.contains(1, 0, 4));
}

TEST(PageCache, LruEvictionOrder) {
  PageCache cache(4 * 4096, 4096);  // 4 pages
  cache.insert(1, 0, 4, false);     // pages 0-3
  // Touch page 0 so it becomes MRU.
  EXPECT_TRUE(cache.contains(1, 0, 1));
  cache.insert(1, 10, 1, false);  // evicts LRU = page 1
  EXPECT_TRUE(cache.contains(1, 0, 1));
  EXPECT_FALSE(cache.contains(1, 1, 1));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PageCache, DirtyEvictionsSurfaceToCaller) {
  PageCache cache(2 * 4096, 4096);
  EXPECT_TRUE(cache.insert(1, 0, 2, true).empty());
  const auto evicted = cache.insert(1, 5, 2, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (PageRun{1, 0, 2}));
  EXPECT_EQ(cache.stats().dirty_evictions, 2u);
}

TEST(PageCache, OversizedInsertReportsEachEvictionOfARepeatedPage) {
  PageCache cache(4 * 4096, 4096);
  cache.insert(1, 5, 2, true);
  // Pages 5 and 6 are evicted while 0-4 go in, inserted again, and evicted
  // again by 9 and 10; each eviction is written back, so each repeat
  // starts its own run.
  const auto evicted = cache.insert(1, 0, 12, true);
  ASSERT_EQ(evicted.size(), 3u);
  EXPECT_EQ(evicted[0], (PageRun{1, 0, 6}));
  EXPECT_EQ(evicted[1], (PageRun{1, 5, 2}));
  EXPECT_EQ(evicted[2], (PageRun{1, 6, 2}));
  EXPECT_EQ(cache.stats().evictions, 10u);
  EXPECT_EQ(cache.stats().dirty_evictions, 10u);
  EXPECT_EQ(cache.resident_pages(), 4u);
}

TEST(PageCache, CleanInsertOverDirtyKeepsDirty) {
  PageCache cache(8 * 4096, 4096);
  cache.insert(1, 0, 1, true);
  cache.insert(1, 0, 1, false);  // a read re-inserting the same page
  const auto dirty = cache.collect_dirty();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], (PageRun{1, 0, 1}));
}

TEST(PageCache, CollectDirtyCleansAndCoalesces) {
  PageCache cache(32 * 4096, 4096);
  cache.insert(1, 0, 3, true);
  cache.insert(1, 10, 2, true);
  cache.insert(2, 0, 1, true);
  auto dirty = cache.collect_dirty();
  ASSERT_EQ(dirty.size(), 3u);  // two runs of file 1, one of file 2
  EXPECT_TRUE(cache.collect_dirty().empty());  // now clean
  // Pages stay resident after collect.
  EXPECT_TRUE(cache.contains(1, 0, 3));
}

TEST(PageCache, InvalidateFileAndAll) {
  PageCache cache(32 * 4096, 4096);
  cache.insert(1, 0, 4, false);
  cache.insert(2, 0, 4, false);
  cache.invalidate_file(1);
  EXPECT_FALSE(cache.contains(1, 0, 1));
  EXPECT_TRUE(cache.contains(2, 0, 1));
  cache.invalidate_all();
  EXPECT_EQ(cache.resident_pages(), 0u);
}

TEST(PageCache, CapacityNeverExceeded) {
  PageCache cache(8 * 4096, 4096);
  for (std::uint64_t p = 0; p < 100; ++p) cache.insert(1, p, 1, p % 3 == 0);
  EXPECT_LE(cache.resident_pages(), 8u);
}

TEST(PageCache, HitRate) {
  PageCache cache(8 * 4096, 4096);
  cache.probe(1, 0, 2);          // 2 misses
  cache.insert(1, 0, 2, false);
  cache.probe(1, 0, 2);          // 2 hits
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(PageCache, TinyCapacityStillWorks) {
  PageCache cache(1, 4096);  // rounds to one page
  EXPECT_EQ(cache.capacity_pages(), 1u);
  cache.insert(1, 0, 1, false);
  cache.insert(1, 1, 1, false);
  EXPECT_EQ(cache.resident_pages(), 1u);
  EXPECT_TRUE(cache.contains(1, 1, 1));
}

}  // namespace
}  // namespace bpsio::fs
