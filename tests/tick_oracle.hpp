// Brute-force reference for the live window's tick rule (DESIGN.md §10).
//
// It keeps every valid record it is given and recomputes the window from
// scratch on each figures() call, in 128-bit arithmetic, straight from the
// rule: tau = ceil(W / 64), tick k = [k tau, (k+1) tau) with floor division,
// the window is the 64 ticks ending at now's tick, a record counts while
// its end tick is one of them, and T is the paper's Figure-3 union of the
// live records' intervals clipped at the window's first ns. It is slow and
// simple on purpose; test_online checks SlidingWindowMetrics against it
// after every step, and the golden exposition tests recompute their window
// figures with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/sim_time.hpp"
#include "metrics/online.hpp"
#include "metrics/overlap.hpp"
#include "trace/io_record.hpp"

namespace bpsio::metrics::testing {

class TickOracle {
 public:
  explicit TickOracle(SimDuration window) : window_ns_(window.ns()) {}

  void add(const trace::IoRecord& record) {
    if (!record.valid()) return;
    if (!any_ || record.end_ns > now_ns_) now_ns_ = record.end_ns;
    any_ = true;
    seen_.push_back(record);
  }

  void add(std::span<const trace::IoRecord> records) {
    for (const trace::IoRecord& r : records) add(r);
  }

  void advance(SimTime now) {
    if (any_ && now.ns() > now_ns_) now_ns_ = now.ns();
  }

  SimTime now() const { return SimTime(now_ns_); }

  /// The window's first ns, saturated at INT64_MIN.
  std::int64_t edge_ns() const {
    const __int128 edge = (tick_of(now_ns_) - 63) * tau();
    const __int128 min = std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(std::max(edge, min));
  }

  WindowFigures figures() const {
    WindowFigures f;
    const __int128 first = tick_of(now_ns_) - 63;
    const std::int64_t edge = edge_ns();
    std::vector<TimeInterval> busy;
    for (const trace::IoRecord& r : seen_) {
      if (tick_of(r.end_ns) < first) continue;
      ++f.count;
      f.blocks += r.blocks;
      f.response_sum_ns += r.end_ns - r.start_ns;
      busy.push_back({std::max(r.start_ns, edge), r.end_ns});
    }
    f.busy_ns = overlap_time_paper(std::move(busy)).ns();
    return f;
  }

 private:
  __int128 tau() const { return (static_cast<__int128>(window_ns_) + 63) / 64; }

  __int128 tick_of(std::int64_t ns) const {
    const __int128 t = tau();
    __int128 q = ns / t;
    if (ns % t != 0 && ns < 0) --q;
    return q;
  }

  std::int64_t window_ns_;
  bool any_ = false;
  std::int64_t now_ns_ = 0;
  std::vector<trace::IoRecord> seen_;
};

}  // namespace bpsio::metrics::testing
