// The interposer's tick-to-ns segment map (src/capture/tick_segment.hpp):
// exact at both anchors, nondecreasing everywhere, within a nanosecond plus
// the fixed-point slope's error of the line through the anchors, and
// continuous where two segments share an anchor.
#include "capture/tick_segment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

namespace bpsio::capture {
namespace {

/// Map each tick as one record's start (and end), returning the ns.
std::vector<std::int64_t> map_ticks(const std::vector<std::int64_t>& ticks,
                                    TickAnchor open, TickAnchor close) {
  std::vector<trace::IoRecord> records(ticks.size());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    records[i].start_ns = ticks[i];
    records[i].end_ns = ticks[i];
  }
  ticks_to_ns(records, open, close);
  std::vector<std::int64_t> ns;
  for (const trace::IoRecord& record : records) {
    EXPECT_EQ(record.start_ns, record.end_ns);
    ns.push_back(record.start_ns);
  }
  return ns;
}

/// floor of the exact line through the two anchors at `tick`.
std::int64_t exact_ns(TickAnchor open, TickAnchor close, std::int64_t tick) {
  const __int128 offset = static_cast<__int128>(tick - open.tick) *
                          (close.ns - open.ns);
  const __int128 ticks = close.tick - open.tick;
  __int128 quotient = offset / ticks;
  if (offset % ticks != 0 && offset < 0) --quotient;
  return open.ns + static_cast<std::int64_t>(quotient);
}

/// The map's error bound at `tick` against exact_ns: a ns for each of the
/// two floors, plus the 32.32 slope's truncation carried from the nearer
/// anchor.
std::int64_t error_bound(TickAnchor open, TickAnchor close, std::int64_t tick) {
  const std::int64_t near =
      std::min(std::llabs(tick - open.tick), std::llabs(close.tick - tick));
  return 2 + (near >> 32);
}

void expect_nondecreasing(const std::vector<std::int64_t>& ns) {
  for (std::size_t i = 1; i < ns.size(); ++i) {
    ASSERT_LE(ns[i - 1], ns[i]) << "at " << i;
  }
}

// A 2^25-tick segment at a 2.9 GHz-like rate, the record path's length.
constexpr TickAnchor kOpen{1'234'567'890'123, 987'654'321'000};
constexpr TickAnchor kClose{kOpen.tick + (std::int64_t{1} << 25),
                            kOpen.ns + 11'570'305};

TEST(TickSegment, BothAnchorsMapExactly) {
  for (const auto& [open, close] :
       {std::pair{kOpen, kClose},
        std::pair{TickAnchor{7, 3}, TickAnchor{7 + 1'000'003, 3 + 333'337}},
        std::pair{TickAnchor{0, 0}, TickAnchor{1, 1'000'000'007}}}) {
    const std::vector<std::int64_t> ns =
        map_ticks({open.tick, close.tick}, open, close);
    EXPECT_EQ(ns[0], open.ns);
    EXPECT_EQ(ns[1], close.ns);
  }
}

TEST(TickSegment, StartsAndEndsAreBothMapped) {
  std::vector<trace::IoRecord> records(1);
  records[0].start_ns = kOpen.tick;
  records[0].end_ns = kClose.tick;
  records[0].blocks = 8;
  ticks_to_ns(records, kOpen, kClose);
  EXPECT_EQ(records[0].start_ns, kOpen.ns);
  EXPECT_EQ(records[0].end_ns, kClose.ns);
  EXPECT_EQ(records[0].blocks, 8u);
}

TEST(TickSegment, NondecreasingAndOnTheLine) {
  // Every tick around the midpoint, where the map turns from measuring
  // forward off the opening anchor to measuring back from the closing one,
  // plus random ticks across the segment.
  std::vector<std::int64_t> ticks;
  const std::int64_t mid = kOpen.tick + (kClose.tick - kOpen.tick) / 2;
  for (std::int64_t t = mid - 5000; t <= mid + 5000; ++t) ticks.push_back(t);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> in_segment(kOpen.tick,
                                                         kClose.tick);
  for (int i = 0; i < 100'000; ++i) ticks.push_back(in_segment(rng));
  std::sort(ticks.begin(), ticks.end());
  const std::vector<std::int64_t> ns = map_ticks(ticks, kOpen, kClose);
  expect_nondecreasing(ns);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    ASSERT_LE(std::llabs(ns[i] - exact_ns(kOpen, kClose, ticks[i])),
              error_bound(kOpen, kClose, ticks[i]))
        << "tick " << ticks[i];
  }
}

TEST(TickSegment, TicksBeforeTheOpeningAnchor) {
  // A thread's first record is stamped before its first anchor is taken,
  // and a record's start can precede the anchor a flush took inside its
  // call: such ticks extrapolate back along the segment's line.
  std::vector<std::int64_t> ticks;
  for (std::int64_t back = 3'000'000; back >= 0; back -= 977) {
    ticks.push_back(kOpen.tick - back);
  }
  ticks.push_back(kOpen.tick + 1);
  const std::vector<std::int64_t> ns = map_ticks(ticks, kOpen, kClose);
  expect_nondecreasing(ns);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    if (ticks[i] < kOpen.tick) {
      EXPECT_LE(ns[i], kOpen.ns);
    }
    ASSERT_LE(std::llabs(ns[i] - exact_ns(kOpen, kClose, ticks[i])),
              error_bound(kOpen, kClose, ticks[i]))
        << "tick " << ticks[i];
  }
  EXPECT_LT(ns.front(), kOpen.ns - 1'000'000);
}

TEST(TickSegment, HoursLongSegmentDoesNotOverflow) {
  // A thread idle for three hours between two records: 3.2e13 ticks at
  // 3 GHz. Stamps near either anchor stay within a nanosecond or two of the
  // line; the 32.32 slope's truncation grows only with the distance to the
  // nearer anchor.
  const TickAnchor open{5'000'000'000, 2'000'000'000};
  const std::int64_t hours_ns = std::int64_t{3} * 3600 * 1'000'000'000;
  const TickAnchor close{open.tick + hours_ns * 3 + 12'345, open.ns + hours_ns};
  std::vector<std::int64_t> ticks = {open.tick - 1'000'000, open.tick,
                                     open.tick + 1, open.tick + 30'000'000};
  for (std::int64_t step = 1; step <= 1'000'000; step *= 10) {
    ticks.push_back(open.tick + (close.tick - open.tick) / 2 - step);
    ticks.push_back(open.tick + (close.tick - open.tick) / 2 + step);
  }
  for (const std::int64_t tick : {close.tick - 30'000'000, close.tick - 1,
                                  close.tick, close.tick + 1'000'000}) {
    ticks.push_back(tick);
  }
  std::sort(ticks.begin(), ticks.end());
  const std::vector<std::int64_t> ns = map_ticks(ticks, open, close);
  expect_nondecreasing(ns);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    ASSERT_LE(std::llabs(ns[i] - exact_ns(open, close, ticks[i])),
              error_bound(open, close, ticks[i]))
        << "tick " << ticks[i];
  }
  EXPECT_EQ(ns[1], open.ns);
  EXPECT_EQ(ns[ns.size() - 2], close.ns);
}

TEST(TickSegment, ZeroTickSegment) {
  // A flush right after an anchor can close a segment in the tick it
  // opened: stamps at or before the tick take the opening ns, later ones
  // the closing ns.
  const TickAnchor open{1'000, 50'000};
  const TickAnchor close{1'000, 50'040};
  const std::vector<std::int64_t> ns =
      map_ticks({400, 999, 1'000, 1'001, 9'000}, open, close);
  EXPECT_EQ(ns, (std::vector<std::int64_t>{50'000, 50'000, 50'000, 50'040,
                                           50'040}));
}

TEST(TickSegment, BackwardAnchorIsTakenAsEqual) {
  // Neither clock goes back between two anchors of one thread; if a
  // closing anchor ever read behind its opening one, the segment collapses
  // onto the opening anchor instead of running backwards.
  const std::vector<std::int64_t> ns =
      map_ticks({90, 100, 150, 200}, TickAnchor{100, 5'000},
                TickAnchor{200, 4'000});
  EXPECT_EQ(ns, (std::vector<std::int64_t>{5'000, 5'000, 5'000, 5'000}));
}

TEST(TickSegment, ConsecutiveSegmentsMeetAtTheirSharedAnchor) {
  // The closing anchor of one segment opens the next: the map is
  // continuous there and nondecreasing across both.
  const TickAnchor first = kOpen;
  const TickAnchor shared = kClose;
  const TickAnchor last{shared.tick + 29'000'017, shared.ns + 9'999'991};
  std::vector<std::int64_t> early;
  std::vector<std::int64_t> late;
  for (std::int64_t t = shared.tick - 20'000; t <= shared.tick; ++t) {
    early.push_back(t);
  }
  for (std::int64_t t = shared.tick; t <= shared.tick + 20'000; ++t) {
    late.push_back(t);
  }
  std::vector<std::int64_t> ns = map_ticks(early, first, shared);
  const std::vector<std::int64_t> next = map_ticks(late, shared, last);
  EXPECT_EQ(ns.back(), shared.ns);
  EXPECT_EQ(next.front(), shared.ns);
  ns.insert(ns.end(), next.begin(), next.end());
  expect_nondecreasing(ns);
}

TEST(TickSegment, EmptySpanIsANoOp) {
  ticks_to_ns({}, kOpen, kClose);
}

}  // namespace
}  // namespace bpsio::capture
