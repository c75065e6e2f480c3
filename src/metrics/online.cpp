#include "metrics/online.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace bpsio::metrics {

double WindowFigures::bps() const {
  if (busy_ns <= 0) return 0.0;
  return static_cast<double>(blocks) / SimDuration(busy_ns).seconds();
}

double WindowFigures::iops(SimDuration window) const {
  return static_cast<double>(count) / window.seconds();
}

double WindowFigures::arpt_s() const {
  if (count == 0) return 0.0;
  return static_cast<double>(response_sum_ns) / 1e9 /
         static_cast<double>(count);
}

double WindowFigures::bandwidth_bps(SimDuration window,
                                    Bytes block_size) const {
  return static_cast<double>(blocks_to_bytes(blocks, block_size)) /
         window.seconds();
}

namespace {

/// Smallest k with 64 * 2^k >= W, capped at 32 so an end offset inside a
/// bucket always fits 32 bits.
unsigned bucket_shift(SimDuration window) {
  unsigned k = 0;
  while (k < 32 &&
         (std::uint64_t{64} << k) < static_cast<std::uint64_t>(window.ns())) {
    ++k;
  }
  return k;
}

constexpr std::uint64_t kEntryMax = std::numeric_limits<std::uint32_t>::max();

}  // namespace

SlidingWindowMetrics::SlidingWindowMetrics(SimDuration window)
    : window_(window), shift_(bucket_shift(window)) {
  BPSIO_CHECK(window.ns() > 0, "sliding window length must be positive");
}

std::int64_t SlidingWindowMetrics::window_start_ns() const {
  // Saturating: with now near the epoch (captured traces start at boot
  // monotonic 0 or huge monotonic values; synthetic tests at small ints),
  // now - W must not wrap below INT64_MIN.
  const std::int64_t now_ns = now_.ns();
  const std::int64_t min_ns = std::numeric_limits<std::int64_t>::min();
  if (now_ns < min_ns + window_.ns()) return min_ns;
  return now_ns - window_.ns();
}

void SlidingWindowMetrics::add(const trace::IoRecord& record) {
  if (!record.valid()) return;  // end < start: never corrupt the union
  if (!any_ || record.end_ns > now_.ns()) now_ = SimTime(record.end_ns);
  any_ = true;
  expire_records();
  const std::int64_t ws = window_start_ns();
  if (record.end_ns <= ws) return;  // older than the window: changes nothing
  insert_record(record.end_ns, record.blocks,
                record.end_ns - record.start_ns);
  const std::int64_t clipped_start = std::max(record.start_ns, ws);
  if (record.end_ns > clipped_start) {
    insert_interval(clipped_start, record.end_ns);
  }
  clip_intervals();
}

void SlidingWindowMetrics::add(std::span<const trace::IoRecord> records) {
  // The window state is a function of the record multiset (the shuffled
  // differential tests prove order-independence), so a batch may advance
  // `now` once, expire once, accumulate, and union once — equivalent to the
  // per-record loop, minus all the intermediate searches.
  std::int64_t max_end = std::numeric_limits<std::int64_t>::min();
  for (const trace::IoRecord& r : records) {
    if (r.valid() && r.end_ns > max_end) max_end = r.end_ns;
  }
  if (max_end == std::numeric_limits<std::int64_t>::min()) return;
  if (!any_ || max_end > now_.ns()) now_ = SimTime(max_end);
  any_ = true;
  expire_records();
  const std::int64_t ws = window_start_ns();

  batch_.clear();
  bool sorted = true;
  std::int64_t prev_start = std::numeric_limits<std::int64_t>::min();
  for (const trace::IoRecord& r : records) {
    if (!r.valid() || r.end_ns <= ws) continue;
    insert_record(r.end_ns, r.blocks, r.end_ns - r.start_ns);
    const std::int64_t clipped_start = std::max(r.start_ns, ws);
    if (r.end_ns > clipped_start) {
      if (clipped_start < prev_start) sorted = false;
      prev_start = clipped_start;
      batch_.push_back(BusyInterval{clipped_start, r.end_ns});
    }
  }
  if (!batch_.empty()) {
    if (!sorted) {
      std::sort(batch_.begin(), batch_.end(),
                [](const BusyInterval& a, const BusyInterval& b) {
                  return a.start_ns < b.start_ns;
                });
    }
    // Coalesce overlapping/touching neighbours in place: a start-ordered
    // frame collapses to a handful of disjoint runs.
    std::size_t w = 0;
    for (std::size_t i = 1; i < batch_.size(); ++i) {
      if (batch_[i].start_ns <= batch_[w].end_ns) {
        batch_[w].end_ns = std::max(batch_[w].end_ns, batch_[i].end_ns);
      } else {
        batch_[++w] = batch_[i];
      }
    }
    batch_.resize(w + 1);
    insert_runs();
  }
  clip_intervals();
}

void SlidingWindowMetrics::advance(SimTime now) {
  if (!any_ || now.ns() <= now_.ns()) return;
  now_ = now;
  expire_records();
  clip_intervals();
}

void SlidingWindowMetrics::insert_record(std::int64_t end_ns,
                                         std::uint64_t blocks,
                                         std::int64_t response_ns) {
  ++figures_.count;
  figures_.blocks += blocks;
  figures_.response_sum_ns += response_ns;
  if (blocks > kEntryMax ||
      static_cast<std::uint64_t>(response_ns) > kEntryMax) {
    wide_.push_back(Wide{end_ns, blocks, response_ns});
    std::push_heap(wide_.begin(), wide_.end(), WideLater{});
    return;
  }
  // Arithmetic shift: floor division, so negative ends bucket correctly.
  const std::int64_t index = end_ns >> shift_;
  Bucket& bucket = !buckets_.empty() && buckets_.back().index == index
                       ? buckets_.back()
                       : bucket_at(index);
  ++bucket.count;
  bucket.blocks += blocks;
  bucket.response_sum_ns += response_ns;
  bucket.entries.push_back(Entry{bucket_offset(end_ns),
                                 static_cast<std::uint32_t>(blocks),
                                 static_cast<std::uint32_t>(response_ns)});
  if (bucket.heaped) {
    std::push_heap(bucket.entries.begin(), bucket.entries.end(),
                   EntryLater{});
  }
}

SlidingWindowMetrics::Bucket& SlidingWindowMetrics::bucket_at(
    std::int64_t index) {
  // A window up to 2^38 ns long spans at most 65 buckets (64 * 2^k >= W),
  // so a binary search over the contiguous buckets takes a few probes.
  auto it = std::lower_bound(buckets_.begin(), buckets_.end(), index,
                             [](const Bucket& b, std::int64_t v) {
                               return b.index < v;
                             });
  if (it != buckets_.end() && it->index == index) return *it;
  Bucket fresh;
  fresh.index = index;
  return *buckets_.insert(it, std::move(fresh));
}

void SlidingWindowMetrics::expire_records() {
  const std::int64_t ws = window_start_ns();
  const std::int64_t edge = ws >> shift_;
  // Buckets wholly behind the edge: subtract their sums, drop them in one
  // erase.
  std::size_t drop = 0;
  while (drop < buckets_.size() && buckets_[drop].index < edge) {
    const Bucket& gone = buckets_[drop];
    figures_.count -= gone.count;
    figures_.blocks -= gone.blocks;
    figures_.response_sum_ns -= gone.response_sum_ns;
    ++drop;
  }
  if (drop > 0) {
    buckets_.erase(buckets_.begin(),
                   buckets_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  // The bucket holding the edge: exact per-record expiry off a min-heap.
  if (!buckets_.empty() && buckets_.front().index == edge) {
    Bucket& bucket = buckets_.front();
    if (!bucket.heaped) {
      std::make_heap(bucket.entries.begin(), bucket.entries.end(),
                     EntryLater{});
      bucket.heaped = true;
    }
    const std::uint32_t edge_offset = bucket_offset(ws);
    while (!bucket.entries.empty() &&
           bucket.entries.front().end_offset <= edge_offset) {
      const Entry& gone = bucket.entries.front();
      --bucket.count;
      bucket.blocks -= gone.blocks;
      bucket.response_sum_ns -= gone.response_ns;
      --figures_.count;
      figures_.blocks -= gone.blocks;
      figures_.response_sum_ns -= gone.response_ns;
      std::pop_heap(bucket.entries.begin(), bucket.entries.end(),
                    EntryLater{});
      bucket.entries.pop_back();
    }
  }
  while (!wide_.empty() && wide_.front().end_ns <= ws) {
    const Wide& gone = wide_.front();
    --figures_.count;
    figures_.blocks -= gone.blocks;
    figures_.response_sum_ns -= gone.response_ns;
    std::pop_heap(wide_.begin(), wide_.end(), WideLater{});
    wide_.pop_back();
  }
}

void SlidingWindowMetrics::insert_interval(std::int64_t start_ns,
                                           std::int64_t end_ns) {
  // Merge [start, end) into the disjoint set; absorb every interval it
  // overlaps or touches, keeping busy_ns the exact total measure.
  auto it = std::lower_bound(merged_.begin(), merged_.end(), start_ns,
                             [](const BusyInterval& iv, std::int64_t v) {
                               return iv.end_ns < v;
                             });
  auto last = it;
  while (last != merged_.end() && last->start_ns <= end_ns) {
    start_ns = std::min(start_ns, last->start_ns);
    end_ns = std::max(end_ns, last->end_ns);
    figures_.busy_ns -= last->end_ns - last->start_ns;
    ++last;
  }
  if (it == last) {
    merged_.insert(it, BusyInterval{start_ns, end_ns});
  } else {
    it->start_ns = start_ns;
    it->end_ns = end_ns;
    merged_.erase(it + 1, last);
  }
  figures_.busy_ns += end_ns - start_ns;
}

void SlidingWindowMetrics::insert_runs() {
  // Hinted batched union: binary-search the slice of merged_ that the batch
  // can touch, two-pointer union both sorted lists into a scratch, splice
  // the result back. Everything before/after the slice is untouched.
  const auto lo = std::lower_bound(merged_.begin(), merged_.end(),
                                   batch_.front().start_ns,
                                   [](const BusyInterval& iv, std::int64_t v) {
                                     return iv.end_ns < v;
                                   });
  const auto hi = std::upper_bound(lo, merged_.end(), batch_.back().end_ns,
                                   [](std::int64_t v, const BusyInterval& iv) {
                                     return v < iv.start_ns;
                                   });
  std::int64_t removed = 0;
  for (auto it = lo; it != hi; ++it) removed += it->end_ns - it->start_ns;

  union_out_.clear();
  const auto push = [this](const BusyInterval& iv) {
    if (!union_out_.empty() && iv.start_ns <= union_out_.back().end_ns) {
      union_out_.back().end_ns =
          std::max(union_out_.back().end_ns, iv.end_ns);
    } else {
      union_out_.push_back(iv);
    }
  };
  auto a = lo;
  std::size_t b = 0;
  while (a != hi || b < batch_.size()) {
    if (b >= batch_.size() ||
        (a != hi && a->start_ns <= batch_[b].start_ns)) {
      push(*a++);
    } else {
      push(batch_[b++]);
    }
  }
  std::int64_t added = 0;
  for (const BusyInterval& iv : union_out_) added += iv.end_ns - iv.start_ns;
  figures_.busy_ns += added - removed;

  const auto lo_idx = static_cast<std::size_t>(lo - merged_.begin());
  const auto hi_idx = static_cast<std::size_t>(hi - merged_.begin());
  if (union_out_.size() == hi_idx - lo_idx) {
    std::copy(union_out_.begin(), union_out_.end(),
              merged_.begin() + static_cast<std::ptrdiff_t>(lo_idx));
  } else {
    merged_.erase(lo, hi);
    merged_.insert(merged_.begin() + static_cast<std::ptrdiff_t>(lo_idx),
                   union_out_.begin(), union_out_.end());
  }
}

void SlidingWindowMetrics::clip_intervals() {
  // Drop fully-expired intervals in one erase, clamp the straddler in place.
  const std::int64_t ws = window_start_ns();
  std::size_t drop = 0;
  while (drop < merged_.size() && merged_[drop].end_ns <= ws) {
    figures_.busy_ns -= merged_[drop].end_ns - merged_[drop].start_ns;
    ++drop;
  }
  if (drop > 0) {
    merged_.erase(merged_.begin(),
                  merged_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  if (!merged_.empty() && merged_.front().start_ns < ws) {
    figures_.busy_ns -= ws - merged_.front().start_ns;
    merged_.front().start_ns = ws;
  }
}

void SlidingWindowMetrics::reset() { *this = SlidingWindowMetrics(window_); }

}  // namespace bpsio::metrics
