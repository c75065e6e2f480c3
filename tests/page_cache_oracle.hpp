// Reference page cache for the differential tests of fs::PageCache.
//
// This is the cache fs::PageCache used before it stored runs of pages: one
// LRU list node and one hash-map entry per resident page, probed, touched,
// inserted and evicted page by page. It is slow and simple on purpose;
// test_properties drives it and the production cache in lockstep and
// compares every result, every stat and the resident count after each step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "fs/page_cache.hpp"

namespace bpsio::fs::testing {

class PerPageCacheOracle {
 public:
  PerPageCacheOracle(Bytes capacity, Bytes page_size) {
    BPSIO_CHECK(page_size > 0, "page cache needs a positive page size");
    capacity_pages_ = static_cast<std::size_t>(capacity / page_size);
    if (capacity_pages_ == 0) capacity_pages_ = 1;
  }

  std::size_t capacity_pages() const { return capacity_pages_; }
  std::size_t resident_pages() const { return map_.size(); }
  const CacheStats& stats() const { return stats_; }

  std::vector<PageRun> probe(std::uint32_t file_id, std::uint64_t first_page,
                             std::uint64_t count) {
    std::vector<PageRun> misses;
    std::uint64_t run_start = 0;
    bool in_run = false;
    for (std::uint64_t p = first_page; p < first_page + count; ++p) {
      const auto it = map_.find(make_key(file_id, p));
      if (it != map_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        if (in_run) {
          misses.push_back(PageRun{file_id, run_start, p - run_start});
          in_run = false;
        }
      } else {
        ++stats_.misses;
        if (!in_run) {
          run_start = p;
          in_run = true;
        }
      }
    }
    if (in_run) {
      misses.push_back(
          PageRun{file_id, run_start, first_page + count - run_start});
    }
    return misses;
  }

  bool contains(std::uint32_t file_id, std::uint64_t first_page,
                std::uint64_t count) {
    return probe(file_id, first_page, count).empty();
  }

  std::vector<PageRun> insert(std::uint32_t file_id, std::uint64_t first_page,
                              std::uint64_t count, bool dirty) {
    std::vector<Key> evicted_dirty;
    for (std::uint64_t p = first_page; p < first_page + count; ++p) {
      const Key key = make_key(file_id, p);
      auto it = map_.find(key);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.dirty = it->second.dirty || dirty;
        continue;
      }
      while (map_.size() >= capacity_pages_) evict_one(evicted_dirty);
      lru_.push_front(key);
      map_.emplace(key, Entry{lru_.begin(), dirty});
      ++stats_.insertions;
    }
    return keys_to_runs(std::move(evicted_dirty));
  }

  std::vector<PageRun> collect_dirty() {
    std::vector<Key> dirty;
    for (auto& [key, entry] : map_) {
      if (entry.dirty) {
        entry.dirty = false;
        dirty.push_back(key);
      }
    }
    return keys_to_runs(std::move(dirty));
  }

  void invalidate_all() {
    lru_.clear();
    map_.clear();
  }

  void invalidate_file(std::uint32_t file_id) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (key_file(it->first) == file_id) {
        lru_.erase(it->second.lru_pos);
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  using Key = std::uint64_t;  // file_id << 40 | page_index
  static Key make_key(std::uint32_t file_id, std::uint64_t page) {
    return (static_cast<Key>(file_id) << 40) | page;
  }
  static std::uint32_t key_file(Key k) {
    return static_cast<std::uint32_t>(k >> 40);
  }
  static std::uint64_t key_page(Key k) { return k & ((1ULL << 40) - 1); }

  struct Entry {
    std::list<Key>::iterator lru_pos;
    bool dirty = false;
  };

  void evict_one(std::vector<Key>& dirty_out) {
    BPSIO_CHECK(!lru_.empty(), "evict_one on empty cache");
    const Key victim = lru_.back();
    lru_.pop_back();
    const auto it = map_.find(victim);
    ++stats_.evictions;
    if (it->second.dirty) {
      ++stats_.dirty_evictions;
      dirty_out.push_back(victim);
    }
    map_.erase(it);
  }

  /// Sorted, coalesced runs of `keys`. A key listed twice breaks its run.
  static std::vector<PageRun> keys_to_runs(std::vector<Key> keys) {
    std::sort(keys.begin(), keys.end());
    std::vector<PageRun> runs;
    for (const Key k : keys) {
      if (!runs.empty() && runs.back().file_id == key_file(k) &&
          runs.back().first_page + runs.back().page_count == key_page(k)) {
        ++runs.back().page_count;
      } else {
        runs.push_back(PageRun{key_file(k), key_page(k), 1});
      }
    }
    return runs;
  }

  std::size_t capacity_pages_;
  std::list<Key> lru_;  ///< front = MRU, back = LRU
  std::unordered_map<Key, Entry> map_;
  CacheStats stats_;
};

}  // namespace bpsio::fs::testing
