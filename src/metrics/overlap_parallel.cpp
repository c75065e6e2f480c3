// Sharded Figure-3 pipeline: the sort is the only super-linear stage of the
// union computation, so that is what fans out. P contiguous shards are sorted
// concurrently, then a single thread streams the k-way merge straight into
// the linear union scan — no merged array is materialized, so the extra
// memory over the serial path is O(P), not O(n).
#include "metrics/overlap.hpp"

#include <algorithm>

#include "metrics/interval_union.hpp"

namespace bpsio::metrics {

namespace {

// Same ordering as overlap.cpp's sort_by_start — the contract that makes
// the parallel result equal to overlap_time_merged by construction.
bool interval_less(const TimeInterval& a, const TimeInterval& b) {
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
  return a.end_ns < b.end_ns;
}

// Below this size a single std::sort beats shard + merge on every machine we
// care about; keeps the small-trace hot path allocation-free.
constexpr std::size_t kParallelCutoff = 1 << 14;

struct ShardCursor {
  std::size_t pos;  ///< next unconsumed element
  std::size_t end;
};

}  // namespace

SimDuration overlap_time_parallel(std::vector<TimeInterval> col_time,
                                  ThreadPool& pool) {
  const std::size_t n = col_time.size();
  if (pool.size() <= 1 || n < kParallelCutoff) {
    return overlap_time_merged(std::move(col_time));
  }

  // Shard boundaries: at most pool.size() contiguous ranges.
  const std::size_t shards = std::min(pool.size(), n);
  const std::size_t per = (n + shards - 1) / shards;
  std::vector<ShardCursor> cursors;
  for (std::size_t begin = 0; begin < n; begin += per) {
    cursors.push_back({begin, std::min(begin + per, n)});
  }

  // Sort each shard on its own worker.
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(cursors.size());
    auto* data = col_time.data();
    for (const auto& c : cursors) {
      tasks.push_back([data, c] {
        std::sort(data + c.pos, data + c.end, interval_less);
      });
    }
    pool.run_all(std::move(tasks));
  }

  // K-way merge + union scan in one pass. The shard count is small (pool
  // width), so a linear scan over cursors beats a heap's bookkeeping.
  auto next_min = [&]() -> const TimeInterval* {
    const TimeInterval* best = nullptr;
    ShardCursor* best_cursor = nullptr;
    for (auto& c : cursors) {
      if (c.pos == c.end) continue;
      const TimeInterval* head = &col_time[c.pos];
      if (!best || interval_less(*head, *best)) {
        best = head;
        best_cursor = &c;
      }
    }
    if (best_cursor) ++best_cursor->pos;
    return best;
  };

  IntervalUnion<> busy;
  while (const TimeInterval* next = next_min()) {
    busy.add(next->start_ns, next->end_ns);
  }
  busy.finish();
  return SimDuration(busy.busy_ns());
}

SimDuration overlap_time_parallel(std::vector<TimeInterval> col_time,
                                  std::size_t threads) {
  ThreadPool pool(threads);
  return overlap_time_parallel(std::move(col_time), pool);
}

}  // namespace bpsio::metrics
