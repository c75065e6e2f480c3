// Metric calculators — includes the paper's Figure 1 scenarios as exact
// numeric tests: each conventional metric must be blind where the paper
// says it is, and BPS must rank the better system higher.
#include <gtest/gtest.h>

#include "metrics/calculators.hpp"
#include "metrics/overlap.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {
namespace {

using trace::make_record;
using trace::TraceCollector;

constexpr std::int64_t kMs = 1'000'000;

TraceCollector collect(std::vector<trace::IoRecord> records) {
  TraceCollector c;
  c.gather(records);
  return c;
}

TEST(Bps, BasicDefinition) {
  // 100 blocks over 0.5 s of I/O time -> 200 blocks/s.
  const auto c = collect({make_record(1, 100, SimTime(0),
                                      SimTime::from_seconds(0.5))});
  EXPECT_DOUBLE_EQ(bps(c), 200.0);
}

TEST(Bps, ConcurrentAccessesShareTime) {
  // Two processes, 100 blocks each, same [0, 1s) interval: B=200, T=1s.
  const auto c = collect({
      make_record(1, 100, SimTime(0), SimTime::from_seconds(1.0)),
      make_record(2, 100, SimTime(0), SimTime::from_seconds(1.0)),
  });
  EXPECT_DOUBLE_EQ(bps(c), 200.0);
}

TEST(Bps, IdleTimeExcluded) {
  // 100 blocks in [0,1s), idle, 100 blocks in [9s,10s): T = 2s not 10s.
  const auto c = collect({
      make_record(1, 100, SimTime(0), SimTime::from_seconds(1.0)),
      make_record(1, 100, SimTime::from_seconds(9.0),
                  SimTime::from_seconds(10.0)),
  });
  EXPECT_DOUBLE_EQ(bps(c), 100.0);
}

TEST(Bps, EmptyTraceIsZero) {
  EXPECT_DOUBLE_EQ(bps(TraceCollector{}), 0.0);
}

TEST(Bps, CustomBlockSizeRescales) {
  // 8 x 512B blocks = 4096 B = one 4 KiB block.
  const auto c =
      collect({make_record(1, 8, SimTime(0), SimTime::from_seconds(1.0))});
  EXPECT_DOUBLE_EQ(bps(c, kDefaultBlockSize), 8.0);
  EXPECT_DOUBLE_EQ(bps(c, 4096), 1.0);
}

TEST(Bps, EqualsBlocksOverPaperT) {
  // The Figure-2 requests: T = 6 ms + 2 ms by Figure 3's algorithm.
  const auto c = collect({
      make_record(1, 10, SimTime(0), SimTime(4 * kMs)),
      make_record(2, 10, SimTime(1 * kMs), SimTime(2 * kMs)),
      make_record(3, 10, SimTime(2 * kMs), SimTime(6 * kMs)),
      make_record(4, 10, SimTime(7 * kMs), SimTime(9 * kMs)),
  });
  const SimDuration t_paper = overlap_time_paper(c.col_time());
  EXPECT_EQ(t_paper.ns(), 8 * kMs);
  EXPECT_EQ(overlapped_io_time(c).ns(), t_paper.ns());
  EXPECT_DOUBLE_EQ(bps(c),
                   static_cast<double>(c.total_blocks()) / t_paper.seconds());
}

TEST(Iops, CountOverPeriod) {
  EXPECT_DOUBLE_EQ(iops(100, SimDuration::from_seconds(2.0)), 50.0);
  EXPECT_DOUBLE_EQ(iops(100, SimDuration::zero()), 0.0);
}

TEST(Bandwidth, BytesOverPeriod) {
  EXPECT_DOUBLE_EQ(bandwidth(2'000'000, SimDuration::from_seconds(2.0)), 1e6);
  EXPECT_DOUBLE_EQ(bandwidth(123, SimDuration::zero()), 0.0);
}

TEST(Arpt, ArithmeticMeanOfResponseTimes) {
  const auto c = collect({
      make_record(1, 1, SimTime(0), SimTime(2 * kMs)),
      make_record(1, 1, SimTime(0), SimTime(4 * kMs)),
  });
  EXPECT_DOUBLE_EQ(arpt(c), 0.003);
  EXPECT_DOUBLE_EQ(arpt(TraceCollector{}), 0.0);
}

// --- Figure 1(a): IOPS cannot see request size ---------------------------
TEST(Figure1, IopsBlindToIoSize) {
  const auto left = collect({
      make_record(1, 8, SimTime(0), SimTime(kMs)),
      make_record(1, 8, SimTime(kMs), SimTime(2 * kMs)),
  });
  const auto right = collect({make_record(1, 16, SimTime(0), SimTime(kMs))});
  const auto s_left =
      measure_run(left, 8192, SimDuration(2 * kMs));
  const auto s_right = measure_run(right, 8192, SimDuration(kMs));
  // "the left case has a value of (2)/(2T)=1/T, just as the same as that of
  //  the right one" — yet the right case halves the execution time.
  EXPECT_DOUBLE_EQ(s_left.iops, s_right.iops);
  EXPECT_LT(s_right.exec_time_s, s_left.exec_time_s);
  EXPECT_GT(s_right.bps, s_left.bps);  // BPS ranks correctly
}

// --- Figure 1(b): bandwidth credits useless data movement -----------------
TEST(Figure1, BandwidthBlindToExtraMovement) {
  const std::vector<trace::IoRecord> records{
      make_record(1, 8, SimTime(0), SimTime(kMs)),
      make_record(1, 8, SimTime(kMs), SimTime(2 * kMs)),
  };
  const auto s_lean =
      measure_run(collect(records), 8192, SimDuration(2 * kMs));
  const auto s_bloated =
      measure_run(collect(records), 16384, SimDuration(2 * kMs));
  EXPECT_GT(s_bloated.bandwidth_bps, s_lean.bandwidth_bps);
  EXPECT_DOUBLE_EQ(s_bloated.exec_time_s, s_lean.exec_time_s);
  EXPECT_DOUBLE_EQ(s_bloated.bps, s_lean.bps);  // BPS unaffected
}

// --- Figure 1(c): ARPT cannot see concurrency -----------------------------
TEST(Figure1, ArptBlindToConcurrency) {
  const auto serial = collect({
      make_record(1, 8, SimTime(0), SimTime(kMs)),
      make_record(1, 8, SimTime(kMs), SimTime(2 * kMs)),
  });
  const auto concurrent = collect({
      make_record(1, 8, SimTime(0), SimTime(kMs)),
      make_record(2, 8, SimTime(0), SimTime(kMs)),
  });
  const auto s_serial = measure_run(serial, 8192, SimDuration(2 * kMs));
  const auto s_conc = measure_run(concurrent, 8192, SimDuration(kMs));
  EXPECT_DOUBLE_EQ(s_serial.arpt_s, s_conc.arpt_s);
  EXPECT_LT(s_conc.exec_time_s, s_serial.exec_time_s);
  EXPECT_GT(s_conc.bps, s_serial.bps);
}

TEST(MeasureRun, PopulatesAllIngredients) {
  const auto c = collect({
      make_record(1, 100, SimTime(0), SimTime::from_seconds(1.0)),
      make_record(2, 50, SimTime(0), SimTime::from_seconds(0.5)),
  });
  const auto s = measure_run(c, 1 << 20, SimDuration::from_seconds(2.0));
  EXPECT_EQ(s.access_count, 2u);
  EXPECT_EQ(s.app_blocks, 150u);
  EXPECT_EQ(s.app_bytes, 150u * 512);
  EXPECT_EQ(s.moved_bytes, Bytes{1} << 20);
  EXPECT_DOUBLE_EQ(s.exec_time_s, 2.0);
  EXPECT_DOUBLE_EQ(s.io_time_s, 1.0);
  EXPECT_DOUBLE_EQ(s.iops, 1.0);
  EXPECT_DOUBLE_EQ(s.arpt_s, 0.75);
  EXPECT_DOUBLE_EQ(s.bps, 150.0);
  EXPECT_DOUBLE_EQ(s.peak_concurrency, 2.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Table1, ExpectedDirections) {
  EXPECT_EQ(expected_direction(MetricKind::iops), stats::Direction::negative);
  EXPECT_EQ(expected_direction(MetricKind::bandwidth),
            stats::Direction::negative);
  EXPECT_EQ(expected_direction(MetricKind::arpt), stats::Direction::positive);
  EXPECT_EQ(expected_direction(MetricKind::bps), stats::Direction::negative);
}

TEST(MetricKind, NamesAndValueExtraction) {
  MetricSample s;
  s.iops = 1;
  s.bandwidth_bps = 2;
  s.arpt_s = 3;
  s.bps = 4;
  EXPECT_EQ(metric_name(MetricKind::iops), "IOPS");
  EXPECT_EQ(metric_name(MetricKind::bandwidth), "BW");
  EXPECT_EQ(metric_name(MetricKind::arpt), "ARPT");
  EXPECT_EQ(metric_name(MetricKind::bps), "BPS");
  EXPECT_DOUBLE_EQ(metric_value(s, MetricKind::iops), 1);
  EXPECT_DOUBLE_EQ(metric_value(s, MetricKind::bandwidth), 2);
  EXPECT_DOUBLE_EQ(metric_value(s, MetricKind::arpt), 3);
  EXPECT_DOUBLE_EQ(metric_value(s, MetricKind::bps), 4);
}

TEST(Filters, BpsRestrictedToOneProcess) {
  const auto c = collect({
      make_record(1, 100, SimTime(0), SimTime::from_seconds(1.0)),
      make_record(2, 300, SimTime(0), SimTime::from_seconds(1.0)),
  });
  trace::RecordFilter f;
  f.pid = 2;
  EXPECT_DOUBLE_EQ(bps(c, kDefaultBlockSize, f), 300.0);
}

}  // namespace
}  // namespace bpsio::metrics
