#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "trace/io_record.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_collector.hpp"
#include "trace/validate.hpp"

namespace bpsio::trace {
namespace {

TEST(IoRecord, Is32BytesAsInPaper) {
  // "As the size of each record is 32 bytes, even for 65535 I/O operations,
  //  all the records need about 3 megabytes".
  EXPECT_EQ(sizeof(IoRecord), 32u);
  EXPECT_LE(65535 * sizeof(IoRecord), 3u * 1024 * 1024);
}

TEST(IoRecord, AccessorsAndValidity) {
  const auto r = make_record(3, 100, SimTime(10), SimTime(50),
                             IoOpKind::write, kIoFailed);
  EXPECT_EQ(r.pid, 3u);
  EXPECT_EQ(r.blocks, 100u);
  EXPECT_EQ(r.start().ns(), 10);
  EXPECT_EQ(r.end().ns(), 50);
  EXPECT_EQ(r.response_time().ns(), 40);
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(r.valid());
  auto bad = r;
  bad.end_ns = 5;
  EXPECT_FALSE(bad.valid());
}

TEST(TraceBuffer, RecordsAndTotals) {
  TraceBuffer buf(7);
  buf.record(10, SimTime(0), SimTime(100));
  buf.record(20, SimTime(100), SimTime(250), IoOpKind::write);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.total_blocks(), 30u);
  EXPECT_EQ(buf.records()[0].pid, 7u);
  EXPECT_EQ(buf.footprint_bytes(), 64u);
}

TEST(TraceBuffer, PushOverridesPid) {
  TraceBuffer buf(9);
  buf.push(make_record(1, 5, SimTime(0), SimTime(1)));
  EXPECT_EQ(buf.records()[0].pid, 9u);
}

TEST(TraceCollector, GathersAcrossProcesses) {
  TraceBuffer a(1), b(2);
  a.record(10, SimTime(0), SimTime(100));
  b.record(20, SimTime(50), SimTime(150));
  TraceCollector c;
  c.gather(a);
  c.gather(b);
  EXPECT_EQ(c.record_count(), 2u);
  EXPECT_EQ(c.total_blocks(), 30u);
  EXPECT_EQ(c.process_count(), 2u);
}

TEST(TraceCollector, EmptyCollectorCountsNothing) {
  TraceCollector c;
  EXPECT_EQ(c.total_blocks(), 0u);
  EXPECT_EQ(c.process_count(), 0u);
}

TEST(TraceCollector, FailedAccessesStillCountInB) {
  // Section III.A: "all the I/O blocks issued from the application are
  // counted, including all successful accesses, non-successful ones".
  TraceCollector c;
  c.add(make_record(1, 10, SimTime(0), SimTime(1)));
  c.add(make_record(1, 5, SimTime(1), SimTime(2), IoOpKind::read, kIoFailed));
  EXPECT_EQ(c.total_blocks(), 15u);
  RecordFilter no_failed;
  no_failed.include_failed = false;
  EXPECT_EQ(c.total_blocks(no_failed), 10u);
}

TEST(RecordFilter, ByPidAndOp) {
  TraceCollector c;
  c.add(make_record(1, 10, SimTime(0), SimTime(1), IoOpKind::read));
  c.add(make_record(2, 20, SimTime(0), SimTime(1), IoOpKind::write));
  RecordFilter f;
  f.pid = 2;
  EXPECT_EQ(c.total_blocks(f), 20u);
  RecordFilter g;
  g.op = IoOpKind::read;
  EXPECT_EQ(c.total_blocks(g), 10u);
}

TEST(RecordFilter, TimeWindowClampsIntervals) {
  TraceCollector c;
  c.add(make_record(1, 10, SimTime(0), SimTime(100)));
  RecordFilter f;
  f.window_start_ns = 25;
  f.window_end_ns = 75;
  const auto ivs = c.col_time(f);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0].start_ns, 25);
  EXPECT_EQ(ivs[0].end_ns, 75);
  // Outside the window entirely -> excluded.
  RecordFilter g;
  g.window_start_ns = 200;
  EXPECT_TRUE(c.col_time(g).empty());
}

std::string temp_trace(const char* name) {
  return ::testing::TempDir() + "/bpsio_test_trace_" + name + ".bpstrace";
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Serialize, BinaryRoundTrip) {
  std::vector<IoRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(make_record(static_cast<std::uint32_t>(i % 4),
                                  static_cast<std::uint64_t>(i * 3),
                                  SimTime(i * 10), SimTime(i * 10 + 5),
                                  i % 2 ? IoOpKind::write : IoOpKind::read));
  }
  const std::string path = temp_trace("roundtrip");
  const auto written = save_binary(path, records);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, sizeof(TraceHeader) + 100 * sizeof(IoRecord));
  EXPECT_EQ(read_bytes(path).size(), *written);
  const auto loaded = load_binary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, records);
  std::remove(path.c_str());
}

TEST(Serialize, BinaryRejectsGarbage) {
  const std::string path = temp_trace("garbage");
  write_bytes(path, "this is not a trace");
  EXPECT_EQ(load_binary(path).code(), Errc::invalid_argument);
  std::remove(path.c_str());
}

TEST(Serialize, BinaryRejectsTruncation) {
  const std::string path = temp_trace("truncation");
  ASSERT_TRUE(save_binary(path, std::vector<IoRecord>(10)).ok());
  std::string data = read_bytes(path);
  data.resize(data.size() - 17);
  write_bytes(path, data);
  EXPECT_EQ(load_binary(path).code(), Errc::io_error);
  std::remove(path.c_str());
}

TEST(Serialize, CsvExportText) {
  std::vector<IoRecord> records{
      make_record(1, 8, SimTime(0), SimTime(1000)),
      make_record(2, 16, SimTime(500), SimTime(2500), IoOpKind::write,
                  kIoFailed),
  };
  std::ostringstream out;
  write_csv(out, records);
  EXPECT_EQ(out.str(),
            "pid,op,flags,blocks,start_ns,end_ns\n"
            "1,read,0,8,0,1000\n"
            "2,write,1,16,500,2500\n");
}

TEST(Validate, FlagsBadRecords) {
  std::vector<IoRecord> records{
      make_record(1, 8, SimTime(10), SimTime(5)),   // end < start
      make_record(1, 0, SimTime(0), SimTime(1)),    // zero blocks, success
      make_record(1, 8, SimTime(-5), SimTime(1)),   // negative start
  };
  const auto report = validate(records);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.issues.size(), 3u);
  EXPECT_EQ(report.checked, 3u);
}

TEST(Validate, AcceptsZeroDurationRecords) {
  // Regression: real sub-tick syscalls captured by the LD_PRELOAD interposer
  // produce end == start records; only simulated (always-positive) durations
  // were exercised before. Zero duration is valid — it contributes to B but
  // adds nothing to T.
  std::vector<IoRecord> records{
      make_record(1, 8, SimTime(100), SimTime(100)),
      make_record(1, 8, SimTime(100), SimTime(100), IoOpKind::write),
      make_record(2, 1, SimTime(0), SimTime(0)),
  };
  const auto report = validate(records);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(validate(records, /*expect_per_pid_monotone=*/true).ok());
}

TEST(Validate, AcceptsZeroBlockSyncRecords) {
  // fsync captured from a real program: occupies I/O time, moves no blocks.
  std::vector<IoRecord> records{
      make_record(1, 0, SimTime(10), SimTime(20), IoOpKind::write, kIoSync),
  };
  EXPECT_TRUE(validate(records).ok());
  // The same zero-block record without the sync flag is still an issue.
  records[0].flags = kIoOk;
  EXPECT_FALSE(validate(records).ok());
}

TEST(Validate, MonotoneCheckPerPid) {
  std::vector<IoRecord> records{
      make_record(1, 8, SimTime(10), SimTime(20)),
      make_record(2, 8, SimTime(0), SimTime(5)),   // other pid: fine
      make_record(1, 8, SimTime(5), SimTime(15)),  // pid 1 went backwards
  };
  EXPECT_TRUE(validate(records, false).ok());
  const auto report = validate(records, true);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].index, 2u);
}

}  // namespace
}  // namespace bpsio::trace
