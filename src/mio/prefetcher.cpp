#include "mio/prefetcher.hpp"

#include <algorithm>
#include <iterator>

#include "mio/io_client.hpp"

namespace bpsio::mio {

Prefetcher::Window* Prefetcher::covering_window(HandleState& st, Bytes offset,
                                                Bytes end) {
  for (auto& w : st.windows) {
    if (offset >= w.start && end <= w.end) return &w;
  }
  return nullptr;
}

void Prefetcher::maybe_prefetch(fs::FileHandle h, HandleState& st,
                                Bytes consumed_end) {
  if (st.eof || st.streak < config_.trigger_streak) return;
  // Keep at most `depth` windows of data ahead of the consumption point.
  while (st.frontier < consumed_end +
                           static_cast<Bytes>(config_.depth) * config_.window) {
    const Bytes from = std::max(st.frontier, consumed_end);
    const Bytes to = from + config_.window;
    st.frontier = to;
    st.windows.push_back(Window{from, to, false, {}});
    evict_windows(st);
    ++stats_.prefetches_issued;
    stats_.bytes_prefetched += config_.window;
    const std::uint32_t handle_id = h.id;
    client_.backend_read_unrecorded(
        h, from, config_.window,
        [this, handle_id, from, to](fs::IoOutcome out) {
          auto it = state_.find(handle_id);
          if (it == state_.end()) return;  // invalidated meanwhile
          HandleState& hs = it->second;
          if (out.bytes < to - from) hs.eof = true;  // clipped at EOF
          for (auto& w : hs.windows) {
            if (w.start == from && !w.done) {
              w.done = true;
              // Waiters may read again, which can evict this window.
              const std::vector<sim::EventFn> waiters = std::move(w.waiters);
              w.waiters.clear();
              for (const auto& waiter : waiters) waiter();
              return;
            }
          }
        });
    if (st.eof) break;
  }
}

void Prefetcher::evict_windows(HandleState& st) const {
  auto it = st.windows.begin();
  while (st.windows.size() > config_.max_windows && it != st.windows.end()) {
    it = it->done ? st.windows.erase(it) : std::next(it);
  }
}

void Prefetcher::read(fs::FileHandle h, Bytes offset, Bytes size,
                      fs::IoDoneFn complete) {
  HandleState& st = state_[h.id];
  const bool sequential = offset == st.next_expected;
  st.streak = sequential ? st.streak + 1 : 0;
  st.next_expected = offset + size;
  const Bytes end = offset + size;
  if (!sequential) {
    // The stream jumped; buffered windows are stale for pipelining purposes
    // (they may still serve hits if the jump lands inside one).
    st.frontier = std::max(st.frontier, end);
  }

  if (Window* w = covering_window(st, offset, end)) {
    if (w->done) {
      ++stats_.full_hits;
      complete(fs::IoOutcome{true, size});
    } else {
      ++stats_.wait_hits;
      w->waiters.push_back([complete = std::move(complete), size]() {
        complete(fs::IoOutcome{true, size});
      });
    }
  } else {
    ++stats_.misses;
    client_.backend_read_unrecorded(h, offset, size, std::move(complete));
  }
  maybe_prefetch(h, st, end);
}

void Prefetcher::invalidate(fs::FileHandle h) { state_.erase(h.id); }

void Prefetcher::invalidate_all() { state_.clear(); }

}  // namespace bpsio::mio
