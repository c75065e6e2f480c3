// SlidingWindowMetrics, the live daemons' windowed counters, against the
// offline record pipeline and a brute-force oracle of the tick rule
// (tests/tick_oracle.hpp): they must agree exactly on every window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "metrics/online.hpp"
#include "metrics/overlap.hpp"
#include "overlap_oracle.hpp"
#include "tick_oracle.hpp"

namespace bpsio::metrics {
namespace {

// ---------------------------------------------------------------------------
// SlidingWindowMetrics — the live daemon's windowed counters. Ground truth
// is the batch pipeline: clamp every record's interval to the window and
// union it with overlap_time_paper / overlap_time_windowed (the latter from
// tests/overlap_oracle.hpp).
// ---------------------------------------------------------------------------

/// Batch ground truth over `records` for the window [ws, now], ws the
/// store's tick edge: time clamped to the window, blocks never clamped (a
/// record is live while its end is at or past the edge).
struct WindowTruth {
  std::uint64_t count = 0;
  std::uint64_t record_blocks = 0;
  std::int64_t busy_ns = 0;
};

WindowTruth window_truth(const std::vector<trace::IoRecord>& records,
                         std::int64_t ws, std::int64_t now) {
  WindowTruth truth;
  std::vector<TimeInterval> col_time;
  for (const trace::IoRecord& r : records) {
    if (r.end_ns < ws || r.end_ns > now) continue;  // expired or future
    ++truth.count;
    truth.record_blocks += r.blocks;
    col_time.push_back({r.start_ns, r.end_ns});
  }
  truth.busy_ns = overlap_time_windowed(col_time, ws, now).ns();
  // The paper algorithm on pre-clamped intervals must agree.
  for (TimeInterval& iv : col_time) iv.start_ns = std::max(iv.start_ns, ws);
  EXPECT_EQ(truth.busy_ns, overlap_time_paper(col_time).ns());
  return truth;
}

std::vector<trace::IoRecord> random_records(std::uint64_t seed, int n,
                                            std::int64_t span_ns) {
  Rng rng(seed);
  std::vector<trace::IoRecord> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::int64_t start =
        static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(span_ns));
    const std::int64_t len =
        static_cast<std::int64_t>(rng.next() % 5'000'000ULL);  // up to 5 ms
    records.push_back(trace::make_record(
        1000 + static_cast<std::uint32_t>(i % 3), 1 + rng.next() % 128,
        SimTime(start), SimTime(start + len)));
  }
  return records;
}

TEST(SlidingWindow, MatchesBatchUnionOnRandomStreams) {
  const SimDuration window = SimDuration::from_ms(50);
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    const std::vector<trace::IoRecord> records =
        random_records(seed, 400, 200'000'000);  // 200 ms span, 50 ms window
    SlidingWindowMetrics live(window);
    for (const trace::IoRecord& r : records) live.add(r);

    const WindowTruth truth =
        window_truth(records, live.window_start_ns(), live.now().ns());
    EXPECT_EQ(live.accesses(), truth.count) << "seed " << seed;
    EXPECT_EQ(live.blocks(), truth.record_blocks) << "seed " << seed;
    EXPECT_EQ(live.io_time().ns(), truth.busy_ns) << "seed " << seed;
  }
}

TEST(SlidingWindow, OrderIndependentIngest) {
  // The daemon interleaves frames from many clients: any permutation of the
  // same record multiset must land on identical window state.
  const SimDuration window = SimDuration::from_ms(30);
  std::vector<trace::IoRecord> records = random_records(1234, 250, 100'000'000);

  SlidingWindowMetrics ordered(window);
  std::vector<trace::IoRecord> sorted = records;
  std::sort(sorted.begin(), sorted.end(),
            [](const trace::IoRecord& a, const trace::IoRecord& b) {
              return a.start_ns < b.start_ns;
            });  // bpsio-lint: allow(iorecord-sort) test fixture ordering
  for (const trace::IoRecord& r : sorted) ordered.add(r);

  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(records.begin(), records.end(), rng);
    SlidingWindowMetrics shuffled(window);
    for (const trace::IoRecord& r : records) shuffled.add(r);
    EXPECT_EQ(shuffled.accesses(), ordered.accesses());
    EXPECT_EQ(shuffled.blocks(), ordered.blocks());
    EXPECT_EQ(shuffled.io_time().ns(), ordered.io_time().ns());
    EXPECT_EQ(shuffled.now().ns(), ordered.now().ns());
    EXPECT_DOUBLE_EQ(shuffled.bps(), ordered.bps());
    EXPECT_DOUBLE_EQ(shuffled.arpt_s(), ordered.arpt_s());
  }
}

TEST(SlidingWindow, SpanBatchMatchesPerRecordIngest) {
  // The batched add(span) must land on the identical window state as the
  // per-record loop — whether the spans arrive as ordered frames (the
  // per-connection contract, fast path) or as arbitrary unsorted slices
  // (the correctness fallback).
  const SimDuration window = SimDuration::from_ms(40);
  for (const std::uint64_t seed : {3ULL, 21ULL, 555ULL}) {
    std::vector<trace::IoRecord> records =
        random_records(seed, 300, 150'000'000);

    SlidingWindowMetrics per_record(window);
    for (const trace::IoRecord& r : records) per_record.add(r);

    for (const bool sort_frames : {true, false}) {
      std::vector<trace::IoRecord> feed = records;
      SlidingWindowMetrics batched(window);
      Rng rng(seed ^ 0xF00D);
      std::size_t at = 0;
      while (at < feed.size()) {
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next() % 37, feed.size() - at);
        const std::span<const trace::IoRecord> frame{feed.data() + at, len};
        if (sort_frames) {
          std::sort(feed.begin() + static_cast<std::ptrdiff_t>(at),
                    feed.begin() + static_cast<std::ptrdiff_t>(at + len),
                    [](const trace::IoRecord& a, const trace::IoRecord& b) {
                      return a.start_ns < b.start_ns;
                    });  // bpsio-lint: allow(iorecord-sort) test fixture ordering
        }
        batched.add(frame);
        at += len;
      }
      EXPECT_EQ(batched.accesses(), per_record.accesses())
          << "seed " << seed << " sorted " << sort_frames;
      EXPECT_EQ(batched.blocks(), per_record.blocks())
          << "seed " << seed << " sorted " << sort_frames;
      EXPECT_EQ(batched.io_time().ns(), per_record.io_time().ns())
          << "seed " << seed << " sorted " << sort_frames;
      EXPECT_EQ(batched.now().ns(), per_record.now().ns());
      EXPECT_DOUBLE_EQ(batched.bps(), per_record.bps());
      EXPECT_DOUBLE_EQ(batched.arpt_s(), per_record.arpt_s());
    }
  }
}

TEST(SlidingWindow, SpanBatchSkipsInvalidAndExpiredRecords) {
  const SimDuration window = SimDuration::from_ms(1);
  SlidingWindowMetrics per_record(window);
  SlidingWindowMetrics batched(window);
  std::vector<trace::IoRecord> frame;
  frame.push_back(trace::make_record(1, 5, SimTime(10'000'000),
                                     SimTime(11'000'000)));
  // Invalid: end < start — must be ignored, not corrupt the union.
  frame.push_back(trace::make_record(1, 9, SimTime(5'000), SimTime(1'000)));
  // Entirely older than the window once the first record set now.
  frame.push_back(trace::make_record(1, 7, SimTime(0), SimTime(100)));
  for (const trace::IoRecord& r : frame) per_record.add(r);
  batched.add(std::span<const trace::IoRecord>(frame));
  EXPECT_EQ(batched.accesses(), per_record.accesses());
  EXPECT_EQ(batched.blocks(), per_record.blocks());
  EXPECT_EQ(batched.io_time().ns(), per_record.io_time().ns());
  EXPECT_EQ(batched.now().ns(), per_record.now().ns());

  // An all-invalid span must leave the window untouched (not even `now`).
  SlidingWindowMetrics untouched(window);
  const trace::IoRecord bad =
      trace::make_record(2, 3, SimTime(100), SimTime(50));
  untouched.add(std::span<const trace::IoRecord>(&bad, 1));
  EXPECT_FALSE(untouched.any());
  EXPECT_EQ(untouched.accesses(), 0u);
}

// A 10 ms window has 64 ticks of 156.25 us.
constexpr std::int64_t kTau = 156'250;

TEST(SlidingWindow, EvictsAsTheWindowSlides) {
  SlidingWindowMetrics live(SimDuration::from_ms(10));
  live.add(trace::make_record(1, 100, SimTime(0), SimTime(2'000'000)));
  EXPECT_EQ(live.accesses(), 1u);
  EXPECT_EQ(live.blocks(), 100u);
  EXPECT_EQ(live.io_time().ns(), 2'000'000);

  // A later record slides the window to ticks 7..70; the first stays live
  // while its end tick (12) is one of them, full block count either way.
  live.add(trace::make_record(1, 50, SimTime(9'000'000), SimTime(11'000'000)));
  EXPECT_EQ(live.window_start_ns(), 7 * kTau);
  EXPECT_EQ(live.accesses(), 2u);
  EXPECT_EQ(live.blocks(), 150u);
  // The first interval contributes [7 tau, 2 ms).
  EXPECT_EQ(live.io_time().ns(), (2'000'000 - 7 * kTau) + 2'000'000);

  // advance() alone (idle traffic) moves to tick 77: ticks 14..77 no
  // longer hold the first record's end.
  live.advance(SimTime(12'100'000));
  EXPECT_EQ(live.window_start_ns(), 14 * kTau);
  EXPECT_EQ(live.accesses(), 1u);
  EXPECT_EQ(live.blocks(), 50u);
  EXPECT_EQ(live.io_time().ns(), 2'000'000);

  // Far future: everything expires; counters drain to zero.
  live.advance(SimTime(1'000'000'000));
  EXPECT_EQ(live.accesses(), 0u);
  EXPECT_EQ(live.blocks(), 0u);
  EXPECT_EQ(live.io_time().ns(), 0);
  EXPECT_EQ(live.bps(), 0.0);
}

TEST(SlidingWindow, TickBoundaryEviction) {
  // The window edge moves a whole tick at a time: a record ending on the
  // first ns of the oldest tick is live for the whole of now's tick and
  // expires when now enters the next one; a record ending one ns earlier
  // is already out.
  const SimDuration window = SimDuration::from_ms(10);
  {
    SlidingWindowMetrics live(window);
    live.add(trace::make_record(1, 7, SimTime(1'000'000), SimTime(13 * kTau)));
    live.advance(SimTime(76 * kTau));  // window is ticks 13..76
    EXPECT_EQ(live.window_start_ns(), 13 * kTau);
    EXPECT_EQ(live.accesses(), 1u);
    EXPECT_EQ(live.blocks(), 7u);
    EXPECT_EQ(live.io_time().ns(), 0);  // clipped to [E, E)
    live.advance(SimTime(77 * kTau - 1));  // still tick 76
    EXPECT_EQ(live.accesses(), 1u);
    live.advance(SimTime(77 * kTau));  // tick 77: tick 13 leaves
    EXPECT_EQ(live.accesses(), 0u);
    EXPECT_EQ(live.blocks(), 0u);
  }
  {
    SlidingWindowMetrics live(window);
    live.add(
        trace::make_record(1, 7, SimTime(1'000'000), SimTime(13 * kTau - 1)));
    live.advance(SimTime(76 * kTau));
    EXPECT_EQ(live.accesses(), 0u);
    EXPECT_EQ(live.io_time().ns(), 0);
  }
  {
    // The same edge when the record arrives after now: ending on E it
    // counts, one ns earlier it does not, per record or in a span.
    const std::vector<trace::IoRecord> frame = {
        trace::make_record(1, 7, SimTime(1'000'000), SimTime(13 * kTau)),
        trace::make_record(1, 9, SimTime(1'000'000), SimTime(13 * kTau - 1)),
        trace::make_record(2, 1, SimTime(76 * kTau), SimTime(76 * kTau))};
    SlidingWindowMetrics per_record(window);
    SlidingWindowMetrics batched(window);
    per_record.add(frame.back());
    for (const trace::IoRecord& r : frame) per_record.add(r);
    batched.add(std::span<const trace::IoRecord>(frame));
    EXPECT_EQ(per_record.accesses(), 3u);  // the last record twice
    EXPECT_EQ(per_record.blocks(), 9u);
    EXPECT_EQ(batched.accesses(), 2u);
    EXPECT_EQ(batched.blocks(), 8u);
  }
  {
    // A late record ending on the last ns of the tick before now's lands in
    // that tick and leaves with it.
    SlidingWindowMetrics live(window);
    live.add(trace::make_record(1, 2, SimTime(77 * kTau), SimTime(77 * kTau)));
    live.add(trace::make_record(1, 3, SimTime(0), SimTime(77 * kTau - 1)));
    EXPECT_EQ(live.blocks(), 5u);
    live.advance(SimTime(140 * kTau));  // ticks 77..140
    EXPECT_EQ(live.blocks(), 2u);
  }
  {
    // Ingest-driven: the record whose arrival moves now into tick 96 evicts
    // one ending in tick 32 within the same add(); one moving now only to
    // tick 95 does not.
    SlidingWindowMetrics live(window);
    live.add(trace::make_record(1, 3, SimTime(0), SimTime(32 * kTau)));
    live.add(trace::make_record(2, 4, SimTime(14'000'000), SimTime(95 * kTau)));
    EXPECT_EQ(live.accesses(), 2u);
    live.add(
        trace::make_record(2, 5, SimTime(14'000'000), SimTime(96 * kTau)));
    EXPECT_EQ(live.accesses(), 2u);
    EXPECT_EQ(live.blocks(), 9u);
    EXPECT_EQ(live.io_time().ns(), 96 * kTau - 14'000'000);
  }
}

TEST(SlidingWindow, SixtyFourTicksWhenSixtyFourDoesNotDivideW) {
  // W = 100 ns: tau = 2 ns, so the window is 128 ns of ticks, and the
  // rates still divide by W.
  SlidingWindowMetrics live(SimDuration(100));
  live.add(trace::make_record(1, 5, SimTime(-1), SimTime(0)));
  live.advance(SimTime(127));  // tick 63: ticks 0..63
  EXPECT_EQ(live.window_start_ns(), 0);
  EXPECT_EQ(live.accesses(), 1u);
  EXPECT_DOUBLE_EQ(live.iops(), 1.0 / 100e-9);
  live.advance(SimTime(128));  // tick 64
  EXPECT_EQ(live.window_start_ns(), 2);
  EXPECT_EQ(live.accesses(), 0u);

  // Negative times floor: -1 ns is in tick -1, [-2, 0).
  SlidingWindowMetrics negative(SimDuration(100));
  negative.add(trace::make_record(1, 5, SimTime(-3), SimTime(-1)));
  EXPECT_EQ(negative.window_start_ns(), -64 * 2);
  negative.advance(SimTime(125));  // tick 62: ticks -1..62
  EXPECT_EQ(negative.accesses(), 1u);
  negative.advance(SimTime(126));  // tick 63
  EXPECT_EQ(negative.accesses(), 0u);
}

TEST(SlidingWindow, FullyExpiredRecordsAreIgnored) {
  SlidingWindowMetrics live(SimDuration::from_ms(1));
  live.add(trace::make_record(1, 10, SimTime(100'000'000), SimTime(101'000'000)));
  const std::uint64_t before = live.accesses();
  // Ancient record: end far behind the window start. Must not resurrect.
  live.add(trace::make_record(2, 999, SimTime(0), SimTime(1'000)));
  EXPECT_EQ(live.accesses(), before);
  EXPECT_EQ(live.blocks(), 10u);
  // now must never move backwards either.
  EXPECT_EQ(live.now().ns(), 101'000'000);
}

TEST(SlidingWindow, RatesUseWindowAndBusyTime) {
  const SimDuration window = SimDuration::from_ms(100);
  SlidingWindowMetrics live(window);
  // Two disjoint 10ms accesses, 64 blocks each.
  live.add(trace::make_record(1, 64, SimTime(0), SimTime(10'000'000)));
  live.add(trace::make_record(1, 64, SimTime(20'000'000), SimTime(30'000'000)));
  EXPECT_DOUBLE_EQ(live.io_time().seconds(), 0.020);
  EXPECT_DOUBLE_EQ(live.bps(), 128.0 / 0.020);            // B / T
  EXPECT_DOUBLE_EQ(live.iops(), 2.0 / window.seconds());  // per window
  EXPECT_DOUBLE_EQ(live.arpt_s(), 0.010);
  EXPECT_DOUBLE_EQ(live.bandwidth_bps(512), 128.0 * 512.0 / window.seconds());
}

// ---------------------------------------------------------------------------
// Differential: the tick store against the brute-force tick oracle
// (tests/tick_oracle.hpp), compared after every step.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

struct DiffCase {
  const char* name;
  std::int64_t window_ns;
  std::int64_t base_ns;   ///< earliest start
  std::int64_t span_ns;   ///< starts lie in [base, base + span)
  std::int64_t max_len_ns;  ///< typical response times lie in [0, max_len]
};

/// Mostly typical records, plus zero-block records, full-width escapes on
/// both fields and the values either side of the 32-bit limit.
std::vector<trace::IoRecord> diff_records(const DiffCase& c, std::uint64_t seed,
                                          std::size_t n) {
  Rng rng(seed);
  std::vector<trace::IoRecord> records;
  records.reserve(n);
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t start =
        c.base_ns + static_cast<std::int64_t>(
                        rng.uniform_u64(static_cast<std::uint64_t>(c.span_ns)));
    auto len = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(c.max_len_ns) + 1));
    std::uint64_t blocks = 1 + rng.uniform_u64(128);
    switch (rng.uniform_u64(16)) {
      case 0: blocks = kLimit + rng.uniform_u64(1000); break;
      case 1: blocks = kLimit - 1; break;
      case 2: blocks = kLimit; break;
      case 3:
        len = static_cast<std::int64_t>(kLimit + rng.uniform_u64(kLimit));
        break;
      case 4: len = static_cast<std::int64_t>(kLimit - 1); break;
      case 5: len = static_cast<std::int64_t>(kLimit); break;
      case 6: blocks = 0; break;  // fsync: time only
      default: break;
    }
    records.push_back(trace::make_record(
        static_cast<std::uint32_t>(1 + i % 5), blocks, SimTime(start),
        SimTime(start + len)));
  }
  return records;
}

::testing::AssertionResult same_window(const SlidingWindowMetrics& live,
                                       const testing::TickOracle& oracle) {
  const WindowFigures got = live.figures();
  const WindowFigures want = oracle.figures();
  if (got.count != want.count || got.blocks != want.blocks ||
      got.busy_ns != want.busy_ns ||
      got.response_sum_ns != want.response_sum_ns ||
      live.now().ns() != oracle.now().ns() ||
      live.window_start_ns() != oracle.edge_ns()) {
    return ::testing::AssertionFailure()
           << "store {n=" << got.count << " B=" << got.blocks
           << " T=" << got.busy_ns << " resp=" << got.response_sum_ns
           << " now=" << live.now().ns() << " E=" << live.window_start_ns()
           << "} oracle {n=" << want.count << " B=" << want.blocks
           << " T=" << want.busy_ns << " resp=" << want.response_sum_ns
           << " now=" << oracle.now().ns() << " E=" << oracle.edge_ns()
           << "}";
  }
  return ::testing::AssertionSuccess();
}

TEST(SlidingWindow, MatchesTickOracleAfterEveryStep) {
  const DiffCase cases[] = {
      // tau = 1 ns: the window is 64 ns, and most records expire quickly.
      {"w1ns", 1, -500, 1'000, 3},
      // tau = 1 ns from INT64_MIN: now - 63 ticks saturates.
      {"w1ns-min", 1, kMin, 300, 3},
      // 1 ms window across zero: 15.625 us ticks, negative ends included.
      {"w1ms", 1'000'000, -2'000'000, 4'000'000, 200'000},
      // 64 does not divide W: tau = 15,626 ns, 64 tau = W + 61.
      {"w-odd", 1'000'003, -1'500'000, 4'000'000, 200'000},
      // tau past 2^32 ns, W not a multiple of 64.
      {"w2^38", (std::int64_t{1} << 38) + 12'345, -(std::int64_t{1} << 39),
       std::int64_t{1} << 40, std::int64_t{1} << 31},
      // Near the epoch minimum the edge saturates at INT64_MIN.
      {"near-min", 1'000'000, kMin + 10, 3'000'000, 100'000},
  };
  std::uint64_t checks = 0;
  for (const DiffCase& c : cases) {
    for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
      for (const bool shuffled : {false, true}) {
        for (const bool spans : {false, true}) {
          std::vector<trace::IoRecord> records = diff_records(c, seed, 700);
          if (shuffled) {
            Rng order(seed ^ 0x5eed);
            std::shuffle(records.begin(), records.end(), order);
          } else {
            std::sort(records.begin(), records.end(),
                      [](const trace::IoRecord& a, const trace::IoRecord& b) {
                        return a.start_ns < b.start_ns;
                      });  // bpsio-lint: allow(iorecord-sort) test fixture ordering
          }
          SlidingWindowMetrics live(SimDuration(c.window_ns));
          testing::TickOracle oracle(SimDuration(c.window_ns));
          Rng steps(seed * 31 + (shuffled ? 1 : 0) + (spans ? 2 : 0));
          std::size_t at = 0;
          while (at < records.size()) {
            if (steps.uniform_u64(8) == 0) {
              // Interleaved advance: up to one window past now.
              const SimTime to(live.now().ns() +
                               static_cast<std::int64_t>(steps.uniform_u64(
                                   static_cast<std::uint64_t>(c.window_ns) + 1)));
              live.advance(to);
              oracle.advance(to);
            } else {
              const std::size_t take =
                  spans ? std::min<std::size_t>(1 + steps.uniform_u64(24),
                                                records.size() - at)
                        : 1;
              const std::span<const trace::IoRecord> frame(
                  records.data() + at, take);
              if (spans) {
                live.add(frame);
              } else {
                live.add(frame.front());
              }
              oracle.add(frame);
              at += take;
            }
            ASSERT_TRUE(same_window(live, oracle))
                << c.name << " seed " << seed << " shuffled " << shuffled
                << " spans " << spans << " at " << at;
            ++checks;
          }
          // Drain to empty a few ticks at a time, then to the end of time.
          for (int k = 1; k <= 5; ++k) {
            const SimTime to = k == 5 ? SimTime(kMax)
                                      : SimTime(live.now().ns() +
                                                std::max<std::int64_t>(
                                                    c.window_ns / 2, 1));
            live.advance(to);
            oracle.advance(to);
            ASSERT_TRUE(same_window(live, oracle)) << c.name << " drain " << k;
          }
          EXPECT_EQ(live.accesses(), 0u) << c.name;
          EXPECT_EQ(live.blocks(), 0u) << c.name;
          EXPECT_EQ(live.io_time().ns(), 0) << c.name;
        }
      }
    }
  }
  EXPECT_GT(checks, 25'000u);
}

TEST(SlidingWindow, TickBoundsSaturateAtBothEndsOfTime) {
  // Ticks that hold INT64_MIN or INT64_MAX reach past them; the store's
  // bounds saturate there and must still place every record exactly.
  for (const std::int64_t w : {std::int64_t{1}, std::int64_t{1'000'000},
                               std::int64_t{1'000'003}}) {
    const std::vector<trace::IoRecord> feed = {
        trace::make_record(1, 2, SimTime(kMin), SimTime(kMin)),
        trace::make_record(1, 3, SimTime(kMin), SimTime(kMin + w / 2)),
        trace::make_record(1, 5, SimTime(kMin + 1), SimTime(kMin + 2 * w)),
        trace::make_record(1, 7, SimTime(kMax - 3 * w), SimTime(kMax - w)),
        trace::make_record(1, 11, SimTime(kMax - 2 * w), SimTime(kMax)),
        trace::make_record(1, 13, SimTime(kMax - w), SimTime(kMax - w / 2)),
    };
    SlidingWindowMetrics live{SimDuration(w)};
    testing::TickOracle oracle{SimDuration(w)};
    for (const trace::IoRecord& r : feed) {
      live.add(r);
      oracle.add(r);
      ASSERT_TRUE(same_window(live, oracle)) << "W " << w;
    }
    EXPECT_GT(live.accesses(), 0u) << "W " << w;
  }
}

}  // namespace
}  // namespace bpsio::metrics
