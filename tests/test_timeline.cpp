#include <gtest/gtest.h>

#include "metrics/pipeline.hpp"
#include "metrics/timeline.hpp"
#include "trace/record_source.hpp"

namespace bpsio::metrics {
namespace {

using trace::make_record;

constexpr std::int64_t kSec = 1'000'000'000;

trace::TraceCollector two_phase_trace() {
  // Phase 1: [0, 2s) busy with 2000 blocks. Idle [2s, 4s).
  // Phase 2: [4s, 5s) busy with 4000 blocks (more intense).
  trace::TraceCollector c;
  c.add(make_record(1, 1000, SimTime(0), SimTime(kSec)));
  c.add(make_record(1, 1000, SimTime(kSec), SimTime(2 * kSec)));
  c.add(make_record(1, 4000, SimTime(4 * kSec), SimTime(5 * kSec)));
  return c;
}

TEST(Timeline, WindowsCoverTheSpan) {
  const auto tl = *build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  ASSERT_EQ(tl.windows.size(), 5u);
  EXPECT_EQ(tl.windows.front().start_ns, 0);
  EXPECT_EQ(tl.windows.back().end_ns, 5 * kSec);
}

TEST(Timeline, BlocksAreConserved) {
  const auto tl = *build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  double total = 0;
  for (const auto& w : tl.windows) total += w.blocks;
  EXPECT_NEAR(total, 6000.0, 1e-6);
}

TEST(Timeline, IdleWindowsReadAsIdle) {
  const auto tl = *build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  EXPECT_DOUBLE_EQ(tl.windows[2].io_time_s, 0.0);  // [2s,3s)
  EXPECT_DOUBLE_EQ(tl.windows[2].bps, 0.0);
  EXPECT_DOUBLE_EQ(tl.windows[3].io_time_s, 0.0);  // [3s,4s)
  EXPECT_NEAR(tl.idle_window_fraction(), 2.0 / 5.0, 1e-12);
}

TEST(Timeline, WindowedBpsTracksIntensity) {
  const auto tl = *build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  EXPECT_NEAR(tl.windows[0].bps, 1000.0, 1e-6);
  EXPECT_NEAR(tl.windows[4].bps, 4000.0, 1e-6);
  EXPECT_DOUBLE_EQ(tl.peak_bps(), tl.windows[4].bps);
}

TEST(Timeline, SpanningAccessIsProRated) {
  trace::TraceCollector c;
  // One access [0.5s, 2.5s) with 200 blocks: 25% / 50% / 25% per window.
  c.add(make_record(1, 200, SimTime(kSec / 2), SimTime(5 * kSec / 2)));
  const auto tl = *build_timeline(c, SimDuration::from_seconds(1.0));
  ASSERT_EQ(tl.windows.size(), 2u);  // span starts at 0.5s: [0.5,1.5),[1.5,2.5)
  EXPECT_NEAR(tl.windows[0].blocks, 100.0, 1e-9);
  EXPECT_NEAR(tl.windows[1].blocks, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(tl.windows[0].busy_fraction, 1.0);
}

TEST(Timeline, ConcurrentAccessesCountOnceInIoTime) {
  trace::TraceCollector c;
  c.add(make_record(1, 100, SimTime(0), SimTime(kSec)));
  c.add(make_record(2, 100, SimTime(0), SimTime(kSec)));
  const auto tl = *build_timeline(c, SimDuration::from_seconds(1.0));
  ASSERT_EQ(tl.windows.size(), 1u);
  EXPECT_DOUBLE_EQ(tl.windows[0].io_time_s, 1.0);
  EXPECT_NEAR(tl.windows[0].bps, 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(tl.windows[0].avg_concurrency, 2.0);
  EXPECT_EQ(tl.windows[0].accesses_active, 2u);
}

TEST(Timeline, EmptyTraceYieldsEmptyTimeline) {
  const auto tl =
      *build_timeline(trace::TraceCollector{}, SimDuration::from_seconds(1.0));
  EXPECT_TRUE(tl.windows.empty());
  EXPECT_DOUBLE_EQ(tl.peak_bps(), 0.0);
  EXPECT_TRUE(tl.to_string().empty());
}

TEST(Timeline, RenderingHasOneLinePerWindow) {
  const auto tl = *build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  const auto s = tl.to_string();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(Timeline, ExplicitWindowBoundsClipTheSpan) {
  trace::RecordFilter f;
  f.window_start_ns = kSec;      // analyze [1s, 2s) only
  f.window_end_ns = 2 * kSec;
  const auto tl = *build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(0.5), f);
  ASSERT_EQ(tl.windows.size(), 2u);
  EXPECT_EQ(tl.windows.front().start_ns, kSec);
  EXPECT_EQ(tl.windows.back().end_ns, 2 * kSec);
  double blocks = 0;
  for (const auto& w : tl.windows) blocks += w.blocks;
  // Only the second half of phase 1 lies inside the window.
  EXPECT_NEAR(blocks, 1000.0, 1e-6);
}

TEST(Timeline, RefusesASpanPastTheWindowCap) {
  // 1 ns windows over [0, 1048577): one window past the 2^20 cap. The
  // refusal comes before any window is allocated for the far record.
  trace::TraceCollector c;
  c.add(make_record(1, 8, SimTime(0), SimTime(10)));
  c.add(make_record(1, 8, SimTime(10), SimTime(1'048'577)));
  const auto tl = build_timeline(c, SimDuration(1));
  ASSERT_FALSE(tl.ok());
  EXPECT_EQ(tl.error().code, Errc::out_of_range);
  EXPECT_EQ(tl.error().message,
            "the timeline needs 1048577 windows of 0.000001 ms, over the "
            "limit of 1048576");

  // A record 4e18 ns out: 4e10 windows of 100 ms, refused as cheaply.
  trace::TraceCollector far;
  far.add(make_record(1, 8, SimTime(0), SimTime(10)));
  far.add(make_record(1, 8, SimTime(10),
                      SimTime(4'000'000'000'000'000'000)));
  TimelineConsumer consumer(SimDuration(100'000'000));
  auto source = trace::collector_source(far);
  MetricPipeline pipeline;
  pipeline.attach(consumer);
  const Status run = pipeline.run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().message,
            "the timeline needs 40000000000 windows of 100 ms, over the limit "
            "of 1048576");
  EXPECT_EQ(consumer.fitting_window_ns(), 3'814'697'265'625);
}

TEST(ConcurrencyProfile, SplitsBusyTimeByLevel) {
  trace::TraceCollector c;
  // [0,1s) single, [1s,2s) double.
  c.add(make_record(1, 1, SimTime(0), SimTime(2 * kSec)));
  c.add(make_record(2, 1, SimTime(kSec), SimTime(2 * kSec)));
  const auto profile = concurrency_profile(c);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_NEAR(profile[0], 0.5, 1e-12);
  EXPECT_NEAR(profile[1], 0.5, 1e-12);
}

TEST(ConcurrencyProfile, EmptyTrace) {
  EXPECT_TRUE(concurrency_profile(trace::TraceCollector{}).empty());
}

}  // namespace
}  // namespace bpsio::metrics
