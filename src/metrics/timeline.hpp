// Time-resolved BPS — the "easy-to-use toolkit" direction from the paper's
// conclusion ("we will conduct more performance measurements using BPS").
//
// A single BPS number summarizes a whole run; a timeline shows *when* the
// I/O system delivered and when it idled. The timeline splits the run into
// fixed windows and computes, per window: blocks whose accesses completed
// in it (attributed proportionally for accesses spanning windows), the
// overlapped I/O time inside the window, windowed BPS, and the concurrency
// profile. Phase changes of bursty applications show up directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {

struct TimelineWindow {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // Deliberately fractional: an access spanning a window boundary contributes
  // pro-rata to both windows. The exact integer B lives in TraceCollector;
  // this is a per-window visualization split, not the metric's accumulator.
  // bpsio-lint: allow(float-blocks)
  double blocks = 0;        ///< B attributed to this window (pro-rated)
  double io_time_s = 0;     ///< overlapped I/O time inside the window
  double bps = 0;           ///< blocks / io_time (0 when idle)
  double busy_fraction = 0; ///< io_time / window length
  double avg_concurrency = 0;
  std::uint64_t accesses_active = 0;  ///< accesses overlapping the window
};

struct Timeline {
  SimDuration window;
  std::vector<TimelineWindow> windows;

  /// Peak windowed BPS over the run (0 for an empty timeline).
  double peak_bps() const;
  /// Fraction of windows with no I/O at all.
  double idle_window_fraction() const;
  /// Simple fixed-width rendering with a busy-fraction bar per window.
  std::string to_string() const;
};

/// The most windows a timeline may hold: 2^20, about 100 MiB of window
/// state (TimelineConsumer refuses a record that needs more).
inline constexpr std::uint64_t kMaxTimelineWindows = std::uint64_t{1} << 20;

/// Build a timeline over [t0, t1) (defaults: the records' span) with the
/// given window size. Blocks of an access spanning several windows are
/// attributed proportionally to the time the access spends in each. Fails
/// with Errc::out_of_range when the span needs more than kMaxTimelineWindows
/// windows.
Result<Timeline> build_timeline(const trace::TraceCollector& collector,
                                SimDuration window,
                                const trace::RecordFilter& filter = {});

/// Concurrency profile: fraction of busy time spent at each concurrency
/// level (index 0 = exactly 1 active access, etc.; the vector is sized to
/// the peak level). Empty when there is no I/O.
std::vector<double> concurrency_profile(const trace::TraceCollector& collector,
                                        const trace::RecordFilter& filter = {});

}  // namespace bpsio::metrics
