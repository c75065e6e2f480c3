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

std::int64_t sub_saturated(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  return __builtin_sub_overflow(a, b, &out)
             ? std::numeric_limits<std::int64_t>::min()
             : out;
}

std::int64_t add_saturated(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  return __builtin_add_overflow(a, b, &out)
             ? std::numeric_limits<std::int64_t>::max()
             : out;
}

}  // namespace

// tau = ceil(W / 64); the bounds start at tick 0, where `now` starts.
SlidingWindowMetrics::SlidingWindowMetrics(SimDuration window)
    : window_(window),
      tick_ns_((std::max<std::int64_t>(window.ns(), 1) - 1) / kTicks + 1),
      tick_hi_ns_(tick_ns_ - 1),
      edge_ns_(-(kTicks - 1) * tick_ns_) {
  BPSIO_CHECK(window.ns() > 0, "sliding window length must be positive");
}

void SlidingWindowMetrics::add(const trace::IoRecord& record) {
  if (!record.valid()) return;  // end < start: never corrupt the union
  if (!any_ || record.end_ns > now_.ns()) slide_to(record.end_ns);
  if (record.end_ns < edge_ns_) return;  // its tick has left the window
  count_record(record.end_ns, record.blocks,
               record.end_ns - record.start_ns);
  const std::int64_t clipped_start = std::max(record.start_ns, edge_ns_);
  if (record.end_ns > clipped_start) {
    insert_interval(clipped_start, record.end_ns);
  }
}

void SlidingWindowMetrics::add(std::span<const trace::IoRecord> records) {
  // The window state is a function of the record multiset and `now`, so a
  // batch may advance `now` once, accumulate, and union once — equivalent
  // to the per-record loop, minus all the intermediate searches.
  bool found = false;
  std::int64_t max_end = std::numeric_limits<std::int64_t>::min();
  for (const trace::IoRecord& r : records) {
    if (!r.valid()) continue;
    found = true;
    max_end = std::max(max_end, r.end_ns);
  }
  if (!found) return;
  if (!any_ || max_end > now_.ns()) slide_to(max_end);

  batch_.clear();
  bool sorted = true;
  std::int64_t prev_start = std::numeric_limits<std::int64_t>::min();
  for (const trace::IoRecord& r : records) {
    if (!r.valid() || r.end_ns < edge_ns_) continue;
    count_record(r.end_ns, r.blocks, r.end_ns - r.start_ns);
    const std::int64_t clipped_start = std::max(r.start_ns, edge_ns_);
    if (r.end_ns > clipped_start) {
      if (clipped_start < prev_start) sorted = false;
      prev_start = clipped_start;
      batch_.push_back(BusyInterval{clipped_start, r.end_ns});
    }
  }
  if (batch_.empty()) return;
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

void SlidingWindowMetrics::advance(SimTime now) {
  if (any_ && now.ns() > now_.ns()) slide_to(now.ns());
}

void SlidingWindowMetrics::slide_to(std::int64_t now_ns) {
  const bool same_tick = any_ && now_ns <= tick_hi_ns_;
  now_ = SimTime(now_ns);
  any_ = true;
  if (same_tick) return;
  // Floor division: negative times fall in the tick below.
  std::int64_t tick = now_ns / tick_ns_;
  std::int64_t into = now_ns % tick_ns_;
  if (into < 0) {
    into += tick_ns_;
    --tick;
  }
  if (ticks_ != nullptr) {
    // The ticks after the old current one reuse the slots of the ticks
    // that leave the window; past 64 new ticks, every slot has left. The
    // window holds a record, so `now` only moved forward: tick > tick_.
    const std::uint64_t moved = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(tick) - static_cast<std::uint64_t>(tick_),
        kTicks);
    for (std::uint64_t d = 1; d <= moved; ++d) {
      Tick& gone = ticks_[(static_cast<std::uint64_t>(tick_) + d) % kTicks];
      figures_.count -= gone.count;
      figures_.blocks -= gone.blocks;
      figures_.response_sum_ns -= gone.response_sum_ns;
      gone = Tick{};
    }
    if (figures_.count == 0) ticks_.reset();  // every slot is zero
  }
  tick_ = tick;
  tick_lo_ns_ = sub_saturated(now_ns, into);
  tick_hi_ns_ = add_saturated(now_ns, tick_ns_ - 1 - into);
  edge_ns_ = sub_saturated(tick_lo_ns_, (kTicks - 1) * tick_ns_);
  clip_intervals();
}

void SlidingWindowMetrics::count_record(std::int64_t end_ns,
                                        std::uint64_t blocks,
                                        std::int64_t response_ns) {
  if (ticks_ == nullptr) ticks_ = std::make_unique<Tick[]>(kTicks);
  // Most records end in the current tick; only an earlier one divides.
  std::int64_t tick = tick_;
  if (end_ns < tick_lo_ns_) {
    tick = end_ns / tick_ns_;
    if (end_ns % tick_ns_ < 0) --tick;
  }
  Tick& slot = ticks_[static_cast<std::uint64_t>(tick) % kTicks];
  ++slot.count;
  slot.blocks += blocks;
  slot.response_sum_ns += response_ns;
  ++figures_.count;
  figures_.blocks += blocks;
  figures_.response_sum_ns += response_ns;
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
