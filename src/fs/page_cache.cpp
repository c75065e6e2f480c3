#include "fs/page_cache.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/check.hpp"

namespace bpsio::fs {

namespace {

// Runs overlap only when one insert larger than the cache evicted a page,
// inserted it again and evicted it again. Write-back then groups the pages
// as a per-page list holding that page twice does: the repeat starts a new
// run, e.g. (36,3) (38,2) (39,2).
std::vector<PageRun> group_pages(const std::vector<PageRun>& runs) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pages;
  for (const PageRun& r : runs) {
    for (std::uint64_t p = r.first_page; p < r.first_page + r.page_count; ++p) {
      pages.emplace_back(r.file_id, p);
    }
  }
  std::sort(pages.begin(), pages.end());
  std::vector<PageRun> out;
  for (const auto& [file_id, page] : pages) {
    if (!out.empty() && out.back().file_id == file_id &&
        out.back().first_page + out.back().page_count == page) {
      ++out.back().page_count;
    } else {
      out.push_back(PageRun{file_id, page, 1});
    }
  }
  return out;
}

}  // namespace

PageCache::PageCache(Bytes capacity, Bytes page_size) : page_size_(page_size) {
  BPSIO_CHECK(page_size_ > 0, "page cache needs a positive page size");
  capacity_pages_ = static_cast<std::size_t>(capacity / page_size_);
  if (capacity_pages_ == 0) capacity_pages_ = 1;
}

// Page p is resident iff the first run of its file ending after p starts at
// or before p: runs are disjoint, so no other run can hold it.
PageCache::Segment PageCache::segment_at(std::uint32_t file_id,
                                         std::uint64_t page,
                                         std::uint64_t end) const {
  const auto it = index_.upper_bound(RunKey{file_id, page});
  if (it == index_.end() || it->first.file_id != file_id) return {kNone, end};
  const Run& r = runs_[it->second];
  if (r.lo <= page) return {it->second, std::min(r.hi, end)};
  return {kNone, std::min(r.lo, end)};
}

std::vector<PageRun> PageCache::probe(std::uint32_t file_id,
                                      std::uint64_t first_page,
                                      std::uint64_t count) {
  std::vector<PageRun> misses;
  const std::uint64_t end = first_page + count;
  for (std::uint64_t p = first_page; p < end;) {
    const Segment s = segment_at(file_id, p, end);
    if (s.slot != kNone) {
      stats_.hits += s.stop - p;
      touch(s.slot, p, s.stop, runs_[s.slot].dirty);
    } else {
      stats_.misses += s.stop - p;
      misses.push_back(PageRun{file_id, p, s.stop - p});
    }
    p = s.stop;
  }
  return misses;
}

bool PageCache::contains(std::uint32_t file_id, std::uint64_t first_page,
                         std::uint64_t count) {
  return probe(file_id, first_page, count).empty();
}

std::vector<PageRun> PageCache::insert(std::uint32_t file_id,
                                       std::uint64_t first_page,
                                       std::uint64_t count, bool dirty) {
  std::vector<PageRun> evicted_dirty;
  const std::uint64_t end = first_page + count;
  // One segment at a time, looked up afresh each time: a gap's evictions
  // can remove pages further along the range.
  for (std::uint64_t p = first_page; p < end;) {
    const Segment s = segment_at(file_id, p, end);
    if (s.slot != kNone) {
      touch(s.slot, p, s.stop, runs_[s.slot].dirty || dirty);
    } else {
      // Pushing the whole gap and then evicting the overflow removes the
      // same prefix of the tail-to-head order as evicting before each page.
      push_front(file_id, p, s.stop, dirty);
      resident_ += s.stop - p;
      stats_.insertions += s.stop - p;
      evict_overflow(evicted_dirty);
    }
    p = s.stop;
  }
  return sorted_runs(std::move(evicted_dirty));
}

void PageCache::touch(std::uint32_t slot, std::uint64_t a, std::uint64_t b,
                      bool dirty) {
  Run& r = runs_[slot];
  const std::uint32_t file_id = r.file_id;
  if (a == r.lo && b == r.hi) {  // the whole run moves; it keeps its key
    unlink(slot);
    r.dirty = dirty;
    if (extends_head(file_id, a, dirty)) {
      r.lo = runs_[head_].lo;
      drop(head_);
    }
    link_front(slot);
    return;
  }
  if (a == r.lo) {
    r.lo = b;
  } else if (b == r.hi) {
    set_hi(slot, a);
  } else {
    // Cut from the middle: the upper part keeps the run's place (and key),
    // the lower part, less recent, follows it.
    const std::uint64_t lo = r.lo;
    const bool was_dirty = r.dirty;
    r.lo = b;
    link_after(new_run(file_id, lo, a, was_dirty), slot);
  }
  push_front(file_id, a, b, dirty);
}

bool PageCache::extends_head(std::uint32_t file_id, std::uint64_t a,
                             bool dirty) const {
  if (head_ == kNone) return false;
  const Run& h = runs_[head_];
  return h.file_id == file_id && h.dirty == dirty && h.hi == a;
}

void PageCache::push_front(std::uint32_t file_id, std::uint64_t a,
                           std::uint64_t b, bool dirty) {
  if (extends_head(file_id, a, dirty)) {
    set_hi(head_, b);
  } else {
    link_front(new_run(file_id, a, b, dirty));
  }
}

void PageCache::evict_overflow(std::vector<PageRun>& dirty_out) {
  while (resident_ > capacity_pages_) {
    const std::uint32_t slot = tail_;
    Run& t = runs_[slot];
    const std::uint64_t n =
        std::min<std::uint64_t>(resident_ - capacity_pages_, t.hi - t.lo);
    stats_.evictions += n;
    if (t.dirty) {
      stats_.dirty_evictions += n;
      dirty_out.push_back(PageRun{t.file_id, t.lo, n});
    }
    t.lo += n;
    resident_ -= n;
    if (t.lo == t.hi) drop(slot);
  }
}

std::vector<PageRun> PageCache::sorted_runs(std::vector<PageRun> runs) {
  std::sort(runs.begin(), runs.end(), [](const PageRun& x, const PageRun& y) {
    return std::tie(x.file_id, x.first_page) < std::tie(y.file_id, y.first_page);
  });
  std::vector<PageRun> out;
  for (const PageRun& r : runs) {
    if (!out.empty() && out.back().file_id == r.file_id) {
      const std::uint64_t back_end =
          out.back().first_page + out.back().page_count;
      if (r.first_page < back_end) return group_pages(runs);
      if (r.first_page == back_end) {
        out.back().page_count += r.page_count;
        continue;
      }
    }
    out.push_back(r);
  }
  return out;
}

std::vector<PageRun> PageCache::collect_dirty() {
  std::vector<PageRun> dirty;
  for (const auto& [key, slot] : index_) {
    Run& r = runs_[slot];
    if (!r.dirty) continue;
    r.dirty = false;
    dirty.push_back(PageRun{r.file_id, r.lo, r.hi - r.lo});
  }
  return sorted_runs(std::move(dirty));
}

void PageCache::invalidate_all() {
  index_.clear();
  runs_.clear();
  free_ = head_ = tail_ = kNone;
  resident_ = 0;
}

void PageCache::invalidate_file(std::uint32_t file_id) {
  auto it = index_.lower_bound(RunKey{file_id, 0});
  while (it != index_.end() && it->first.file_id == file_id) {
    const std::uint32_t slot = it->second;
    ++it;
    resident_ -= runs_[slot].hi - runs_[slot].lo;
    drop(slot);
  }
}

std::uint32_t PageCache::new_run(std::uint32_t file_id, std::uint64_t lo,
                                 std::uint64_t hi, bool dirty) {
  std::uint32_t slot = free_;
  if (slot != kNone) {
    free_ = runs_[slot].next;
  } else {
    BPSIO_CHECK(runs_.size() < kNone, "page cache run slab is full");
    slot = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  }
  Run& r = runs_[slot];
  r.file_id = file_id;
  r.dirty = dirty;
  r.lo = lo;
  r.hi = hi;
  r.prev = r.next = kNone;
  r.pos = index_.emplace(RunKey{file_id, hi}, slot).first;
  return slot;
}

void PageCache::drop(std::uint32_t slot) {
  unlink(slot);
  index_.erase(runs_[slot].pos);
  runs_[slot].next = free_;
  free_ = slot;
}

// Every caller moves the end across pages no other run holds, so the key
// keeps its place in the index and the hinted re-insert is O(1).
void PageCache::set_hi(std::uint32_t slot, std::uint64_t hi) {
  Run& r = runs_[slot];
  const auto hint = std::next(r.pos);
  auto node = index_.extract(r.pos);
  node.key().end = hi;
  r.pos = index_.insert(hint, std::move(node));
  BPSIO_DCHECK(std::next(r.pos) == hint, "a run end moved past another run");
  r.hi = hi;
}

void PageCache::unlink(std::uint32_t slot) {
  Run& r = runs_[slot];
  if (r.prev != kNone) {
    runs_[r.prev].next = r.next;
  } else {
    head_ = r.next;
  }
  if (r.next != kNone) {
    runs_[r.next].prev = r.prev;
  } else {
    tail_ = r.prev;
  }
  r.prev = r.next = kNone;
}

void PageCache::link_front(std::uint32_t slot) {
  Run& r = runs_[slot];
  r.prev = kNone;
  r.next = head_;
  if (head_ != kNone) {
    runs_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void PageCache::link_after(std::uint32_t slot, std::uint32_t at) {
  Run& r = runs_[slot];
  r.prev = at;
  r.next = runs_[at].next;
  if (r.next != kNone) {
    runs_[r.next].prev = slot;
  } else {
    tail_ = slot;
  }
  runs_[at].next = slot;
}

}  // namespace bpsio::fs
