// Middleware-level sequential prefetching (cf. the paper's citation of
// pre-execution / signature-based MPI-IO prefetching, refs [13][14]).
//
// When a process's reads on a handle form a sequential streak, the
// prefetcher keeps a bounded number of windows fetched ahead of the
// consumption point (the "frontier"). Application reads inside a completed
// window are served with no backend I/O; reads inside an in-flight window
// wait for it. Prefetch traffic inflates FS-level moved bytes but not B —
// an ablation knob for the bandwidth-misleads story.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "fs/file_api.hpp"
#include "sim/simulator.hpp"

namespace bpsio::mio {

class IoClient;

struct PrefetchConfig {
  Bytes window = 4 * kMiB;           ///< bytes fetched per prefetch request
  std::uint32_t trigger_streak = 2;  ///< sequential reads before prefetching
  std::uint32_t depth = 2;           ///< windows kept ahead of consumption
  /// Retained completed windows per handle; windows still in flight are
  /// kept beyond it until they land.
  std::size_t max_windows = 8;
};

struct PrefetchStats {
  std::uint64_t prefetches_issued = 0;
  Bytes bytes_prefetched = 0;
  std::uint64_t full_hits = 0;   ///< app reads served from a completed window
  std::uint64_t wait_hits = 0;   ///< app reads that waited on an in-flight window
  std::uint64_t misses = 0;
};

class Prefetcher {
 public:
  Prefetcher(IoClient& client, PrefetchConfig config)
      : client_(client), config_(config) {}

  /// Route an application read; `complete` fires when data is available.
  void read(fs::FileHandle h, Bytes offset, Bytes size, fs::IoDoneFn complete);

  void invalidate(fs::FileHandle h);
  void invalidate_all();

  const PrefetchStats& stats() const { return stats_; }

 private:
  struct Window {
    Bytes start = 0;
    Bytes end = 0;
    bool done = false;
    std::vector<sim::EventFn> waiters;
  };
  struct HandleState {
    Bytes next_expected = 0;
    std::uint32_t streak = 0;
    Bytes frontier = 0;  ///< highest prefetched-to offset
    bool eof = false;    ///< a prefetch came back short: stop fetching
    std::deque<Window> windows;
  };

  Window* covering_window(HandleState& st, Bytes offset, Bytes end);
  /// Top up the pipeline so `frontier` stays within depth*window of
  /// `consumed_end`.
  void maybe_prefetch(fs::FileHandle h, HandleState& st, Bytes consumed_end);
  /// Drop the oldest completed windows beyond max_windows. In-flight
  /// windows are never dropped: reads may be waiting on them.
  void evict_windows(HandleState& st) const;

  IoClient& client_;
  PrefetchConfig config_;
  std::map<std::uint32_t, HandleState> state_;
  PrefetchStats stats_;
};

}  // namespace bpsio::mio
