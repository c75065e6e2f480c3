// LRU page cache for the simulated local file system.
//
// Tracks which (file, page) pairs are resident — there is no data, only
// residency and dirtiness. The read path asks for the miss runs of a page
// range; the write path inserts dirty pages (write-back) or clean pages
// (write-through). Evictions of dirty pages surface to the caller so the
// file system can schedule the write-back I/O.
//
// The LRU order is per page, but it is stored as runs: pages [lo, hi) of one
// file with one dirty flag that sit next to each other in LRU order, hi-1
// the most recent. A sequential stream stays one run, so probe and insert
// cost O(runs touched), not O(pages). DESIGN.md §16 has the walk and why it
// evicts exactly the pages a per-page LRU evicts.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"

namespace bpsio::fs {

/// A run of consecutive pages of one file.
struct PageRun {
  std::uint32_t file_id = 0;
  std::uint64_t first_page = 0;
  std::uint64_t page_count = 0;
  friend bool operator==(const PageRun&, const PageRun&) = default;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class PageCache {
 public:
  /// `capacity` in bytes, `page_size` the caching granularity.
  PageCache(Bytes capacity, Bytes page_size);
  // Runs hold iterators into the index; a copy would point into the source.
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  Bytes page_size() const { return page_size_; }
  std::size_t capacity_pages() const { return capacity_pages_; }
  std::size_t resident_pages() const { return resident_; }

  /// Probe pages [first, first+count) of `file_id`. Hits are touched
  /// (moved to MRU); the gaps are returned as maximal miss runs.
  std::vector<PageRun> probe(std::uint32_t file_id, std::uint64_t first_page,
                             std::uint64_t count);

  /// True when every page of the range is resident (touches on hit).
  bool contains(std::uint32_t file_id, std::uint64_t first_page,
                std::uint64_t count);

  /// Insert pages (MRU). Already-resident pages are refreshed; a clean
  /// insert over a dirty page keeps it dirty. Returns the *dirty* page runs
  /// evicted to make room — the caller owns writing them back.
  std::vector<PageRun> insert(std::uint32_t file_id, std::uint64_t first_page,
                              std::uint64_t count, bool dirty);

  /// Remove and return all dirty runs (they become clean-resident).
  std::vector<PageRun> collect_dirty();
  /// Drop every page, dirty or not (simulates `echo 3 > drop_caches`).
  void invalidate_all();
  /// Drop all pages belonging to one file (on remove()).
  void invalidate_file(std::uint32_t file_id);

  const CacheStats& stats() const { return stats_; }
  void clear_stats() { stats_ = CacheStats{}; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// A run's index key: its file and one past its last page. Eviction trims
  /// a run's low end, so it never re-keys the run.
  struct RunKey {
    std::uint32_t file_id = 0;
    std::uint64_t end = 0;
    friend auto operator<=>(const RunKey&, const RunKey&) = default;
  };
  using Index = std::map<RunKey, std::uint32_t>;  ///< key -> slot in runs_

  /// Pages [lo, hi) of one file, adjacent in LRU order, hi-1 the most recent.
  struct Run {
    std::uint32_t file_id = 0;
    bool dirty = false;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint32_t prev = kNone;  ///< toward the MRU end
    std::uint32_t next = kNone;  ///< toward the LRU end (free list link)
    Index::iterator pos;
  };

  /// The part of [page, end) that starts at `page`: resident pages of one
  /// run (`slot` set), or a gap up to the next resident page (`slot` kNone).
  struct Segment {
    std::uint32_t slot = kNone;
    std::uint64_t stop = 0;
  };
  Segment segment_at(std::uint32_t file_id, std::uint64_t page,
                     std::uint64_t end) const;

  /// Move pages [a, b) of run `slot` to the MRU end, marked `dirty`.
  void touch(std::uint32_t slot, std::uint64_t a, std::uint64_t b, bool dirty);
  /// True when pages of `file_id` from `a` on, marked `dirty`, continue the
  /// head run: pushing them makes one run of both.
  bool extends_head(std::uint32_t file_id, std::uint64_t a, bool dirty) const;
  /// Make pages [a, b) of `file_id` the most recent, merging into the head
  /// run when they extend it.
  void push_front(std::uint32_t file_id, std::uint64_t a, std::uint64_t b,
                  bool dirty);
  /// Evict LRU pages until the cache fits; dirty ones go to `dirty_out`.
  void evict_overflow(std::vector<PageRun>& dirty_out);
  /// Sort by (file, page) and coalesce, as the pages themselves would.
  static std::vector<PageRun> sorted_runs(std::vector<PageRun> runs);

  std::uint32_t new_run(std::uint32_t file_id, std::uint64_t lo,
                        std::uint64_t hi, bool dirty);
  void drop(std::uint32_t slot);  ///< unlink, unindex and free a run
  void set_hi(std::uint32_t slot, std::uint64_t hi);
  void unlink(std::uint32_t slot);
  void link_front(std::uint32_t slot);
  void link_after(std::uint32_t slot, std::uint32_t at);

  Bytes page_size_;
  std::size_t capacity_pages_;
  std::size_t resident_ = 0;
  std::vector<Run> runs_;       ///< slab; free slots chain through `next`
  std::uint32_t free_ = kNone;
  std::uint32_t head_ = kNone;  ///< MRU run
  std::uint32_t tail_ = kNone;  ///< LRU run
  Index index_;
  CacheStats stats_;
};

}  // namespace bpsio::fs
