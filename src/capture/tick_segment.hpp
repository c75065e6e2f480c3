// The tick-to-ns map of the interposer's record stamps (DESIGN.md §9).
//
// On x86-64 with the kernel's clocksource set to `tsc`, a recorded call's
// start and end are two plain rdtsc reads, and its record keeps those ticks
// while it sits in the thread's buffer. The buffer is cut into segments,
// each opened and closed by a (tick, ns) anchor; before the records leave
// the thread, every stamp of a closed segment is mapped onto the line
// through its two anchors. The closing anchor opens the next segment, so
// consecutive segments meet at one exact point and the map stays continuous
// and nondecreasing across them.
//
// Pure arithmetic: no clock read, no allocation. Only the interposer and
// its unit test include this header.
#pragma once

#include <cstdint>
#include <span>

#include "trace/io_record.hpp"

namespace bpsio::capture {

/// One point of the map: a TSC reading and the CLOCK_MONOTONIC ns read
/// beside it.
struct TickAnchor {
  std::int64_t tick = 0;
  std::int64_t ns = 0;
};

/// Rewrites every record's start_ns and end_ns from ticks to ns, linearly
/// between `open` and `close`. The slope is a 32.32 fixed-point ns-per-tick
/// multiplier, applied through a 128-bit product. A stamp in the segment's
/// first half is measured forward from `open`, one in its second half back
/// from `close`, so both anchors map exactly. Each side is nondecreasing on
/// its own, also for stamps before `open` (a thread's first record is
/// stamped before its first anchor), and at the midpoint the forward side
/// rounds down onto the line while the backward side rounds up, so the map
/// is nondecreasing everywhere. A close before its open, in ticks or in ns,
/// is taken as equal to it; in a zero-tick segment a stamp at or before the
/// anchor tick maps to `open.ns` and a later one to `close.ns`.
inline void ticks_to_ns(std::span<trace::IoRecord> records, TickAnchor open,
                        TickAnchor close) {
  if (close.tick < open.tick) close.tick = open.tick;
  if (close.ns < open.ns) close.ns = open.ns;
  const auto ticks = static_cast<std::uint64_t>(close.tick - open.tick);
  const auto span_ns = static_cast<unsigned __int128>(close.ns - open.ns);
  const unsigned __int128 slope = ticks == 0 ? 0 : (span_ns << 32) / ticks;
  const auto mult = static_cast<std::uint64_t>(
      slope > UINT64_MAX ? UINT64_MAX : slope);  // 32.32 ns per tick
  // floor(delta * mult / 2^32); the arithmetic shift floors negative deltas
  // too.
  const auto scale = [mult](std::int64_t delta) {
    return static_cast<std::int64_t>(
        (static_cast<__int128>(delta) * static_cast<__int128>(mult)) >> 32);
  };
  const std::int64_t mid = open.tick + static_cast<std::int64_t>(ticks / 2);
  const auto map = [&](std::int64_t tick) {
    return tick <= mid ? open.ns + scale(tick - open.tick)
                       : close.ns - scale(close.tick - tick);
  };
  for (trace::IoRecord& record : records) {
    record.start_ns = map(record.start_ns);
    record.end_ns = map(record.end_ns);
  }
}

}  // namespace bpsio::capture
