// End-to-end tests of the bpsio_report binary over a seeded multi-file trace
// set: three files standing for three traced threads, several pids per file,
// one pid shared by two files (two threads of one process), and the
// interval shapes of interval_shapes.hpp (equal starts and ends, nesting,
// touching and zero-length intervals), shifted to start at or after zero.
//
// - Each pid's T_s in the --per-pid table equals the O(n^2) reference union
//   of that pid's intervals, printed the way the tool prints it.
// - The text and --csv outputs with --per-pid and a timeline are pinned
//   byte for byte, over that set and over a 17-file set.
// - Durations the tools cannot represent, pid strides whose remap passes
//   32 bits, and timelines too large to hold are usage errors (exit 2), not
//   aborts, undefined casts or wrapped pids.
//
// The binaries come from the test ENVIRONMENT (BPSIO_REPORT_BIN,
// BPSIO_AGENTD_BIN); without them (running this test binary by hand) the
// tests skip.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "overlap_oracle.hpp"
#include "interval_shapes.hpp"
#include "trace/record_source.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio {
namespace {

using trace::IoRecord;

/// The pids of each trace file; pid 7 appears in the first two.
const std::vector<std::vector<std::uint32_t>> kFilePids = {
    {7, 11, 12}, {7, 21, 22}, {31, 32, 33}};
constexpr std::size_t kRecordsPerFile = 70;
constexpr std::int64_t kUnitNs = 997;  // times land off round numbers
/// Shaped records start as low as -2000 units; trace files hold times at or
/// after zero (IoRecord::times_in_range), so every set is shifted by this.
constexpr std::int64_t kShiftNs = 2000 * kUnitNs;

struct Run {
  int exit_code = -1;
  std::string out;  ///< stdout and stderr, interleaved
};

/// Runs the binary named by environment variable `bin_var` with `args`
/// (shell words) under a timeout, or nullopt without the variable.
std::optional<Run> run_tool(const char* bin_var, const std::string& args) {
  const char* bin = std::getenv(bin_var);
  if (bin == nullptr) return std::nullopt;
  const std::string command =
      "timeout 60 '" + std::string(bin) + "' " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  Run run;
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.out += buf;
  const int status = ::pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::optional<Run> report(const std::string& args) {
  return run_tool("BPSIO_REPORT_BIN", args);
}

/// A fresh directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string templ = "/tmp/bpsio_report_e2e_XXXXXX";
    EXPECT_NE(::mkdtemp(templ.data()), nullptr);
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A seeded trace set, in a directory of its own: file f holds
/// `records_per_file` shaped records of the pids `file_pids[f]`, shifted
/// by kShiftNs. File names sort in file order.
class TraceSet {
 public:
  explicit TraceSet(
      std::uint64_t seed,
      const std::vector<std::vector<std::uint32_t>>& file_pids = kFilePids,
      std::size_t records_per_file = kRecordsPerFile) {
    for (std::size_t f = 0; f < file_pids.size(); ++f) {
      auto shaped = shaped_records(seed * 100 + f, records_per_file,
                                   file_pids[f], kUnitNs);
      for (IoRecord& r : shaped) {
        r.start_ns += kShiftNs;
        r.end_ns += kShiftNs;
      }
      auto ordered = trace::VectorSource::sorted(std::move(shaped));
      char name[32];
      std::snprintf(name, sizeof name, "/t%02zu.bpstrace", f);
      trace::SpillWriter writer(dir_.path() + name);
      for (auto chunk = ordered.next_chunk(); !chunk.empty();
           chunk = ordered.next_chunk()) {
        writer.append(chunk);
        records_.insert(records_.end(), chunk.begin(), chunk.end());
      }
      EXPECT_TRUE(writer.close().ok());
    }
  }

  const std::string& dir() const { return dir_.path(); }
  const std::vector<IoRecord>& records() const { return records_; }

 private:
  TempDir dir_;
  std::vector<IoRecord> records_;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

std::vector<std::string> cells_of(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t at = 0;
  for (;;) {
    const std::size_t comma = line.find(',', at);
    cells.push_back(line.substr(at, comma - at));
    if (comma == std::string::npos) return cells;
    at = comma + 1;
  }
}

TEST(ReportE2E, PerPidTEqualsBruteForceUnion) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TraceSet set(seed);
    const auto run = report("--per-pid --csv '" + set.dir() + "'");
    if (!run) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
    ASSERT_EQ(run->exit_code, 0) << run->out;

    struct Expected {
      std::uint64_t records = 0;
      std::uint64_t blocks = 0;
      std::vector<trace::TimeInterval> intervals;
    };
    std::map<std::uint32_t, Expected> expected;
    for (const IoRecord& r : set.records()) {
      Expected& e = expected[r.pid];
      ++e.records;
      e.blocks += r.blocks;
      e.intervals.push_back({r.start_ns, r.end_ns});
    }

    const auto lines = lines_of(run->out);
    std::size_t row = 0;
    const std::string header = "pid,records,blocks,T_s,bps,arpt_s";
    while (row < lines.size() && lines[row] != header) ++row;
    ASSERT_LT(row, lines.size()) << run->out;
    ++row;
    ASSERT_EQ(lines.size() - row, expected.size()) << run->out;
    for (const auto& [pid, e] : expected) {
      const auto cells = cells_of(lines[row++]);
      ASSERT_EQ(cells.size(), 6u);
      EXPECT_EQ(cells[0], std::to_string(pid));
      EXPECT_EQ(cells[1], std::to_string(e.records));
      EXPECT_EQ(cells[2], std::to_string(e.blocks));
      const SimDuration t = metrics::overlap_time_bruteforce(e.intervals);
      EXPECT_EQ(cells[3], fmt_double(static_cast<double>(t.ns()) / 1e9, 6))
          << "pid " << pid;
    }
  }
}

// bpsio_report's outputs for seed 1 with --per-pid --window=0.5, pinned
// byte for byte: the text head (summary and per-pid table), the --csv head,
// and the timeline that both print after their head.
constexpr const char* kPinnedText = R"(bpsio_report: 3 trace file(s), 210 records, 8 process(es)
  span   0.007504 s
  B      1045 blocks (522.50KiB @ 512 B/block)
  T      0.003806 s
  BPS    274599.013 blocks/s
  IOPS   27983.512 /s
  BW     71.30 MB/s (application bytes / period)
  ARPT   0.000040360 s
  peak   11 concurrent

pid  records  blocks  T_s       bps         arpt_s
---  -------  ------  --------  ----------  -----------
7    57       296     0.001715  172610.856  0.000043798
11   20       96      0.000776  123764.610  0.000038783
12   21       98      0.000562  174281.710  0.000033661
21   20       111     0.000588  188701.698  0.000034247
22   22       117     0.000617  189583.289  0.000035620
31   29       156     0.001214  128464.210  0.000054113
32   17       70      0.000582  120223.685  0.000038297
33   24       101     0.000775  130378.265  0.000033649
)";
constexpr const char* kPinnedCsv = R"(files,records,processes,span_s,B,T_s,bps,iops,bw_Bps,arpt_s,peak
3,210,8,0.007504,1045,0.003806,274599.013,27983.512,71296658.675,0.000040360,11
pid,records,blocks,T_s,bps,arpt_s
7,57,296,0.001715,172610.856,0.000043798
11,20,96,0.000776,123764.610,0.000038783
12,21,98,0.000562,174281.710,0.000033661
21,20,111,0.000588,188701.698,0.000034247
22,22,117,0.000617,189583.289,0.000035620
31,29,156,0.001214,128464.210,0.000054113
32,17,70,0.000582,120223.685,0.000038297
33,24,101,0.000775,130378.265,0.000033649
)";
constexpr const char* kPinnedTimeline = R"([   0.000s,    0.001s) |#####...............| bps=  303235.3 busy= 25.7% conc=1.34
[   0.001s,    0.001s) |############........| bps=  237181.3 busy= 58.8% conc=1.04
[   0.001s,    0.002s) |##################..| bps=  263701.1 busy= 87.6% conc=2.37
[   0.002s,    0.002s) |############........| bps=  198177.6 busy= 62.3% conc=2.30
[   0.002s,    0.003s) |##########..........| bps=  418385.4 busy= 50.6% conc=2.40
[   0.003s,    0.003s) |###################.| bps=  285577.7 busy= 94.1% conc=2.18
[   0.003s,    0.004s) |############........| bps=  307073.8 busy= 59.9% conc=3.23
[   0.004s,    0.004s) |#################...| bps=  347682.2 busy= 86.6% conc=2.23
[   0.004s,    0.005s) |#####...............| bps=  121320.1 busy= 23.8% conc=1.25
[   0.005s,    0.005s) |####################| bps=  335017.5 busy=100.0% conc=3.30
[   0.005s,    0.006s) |#######.............| bps=  121805.3 busy= 32.9% conc=1.10
[   0.006s,    0.006s) |#####...............| bps=  272238.2 busy= 24.9% conc=2.02
[   0.006s,    0.007s) |####................| bps=  243870.8 busy= 19.7% conc=1.99
[   0.007s,    0.007s) |#####...............| bps=  107761.3 busy= 24.1% conc=1.67
[   0.007s,    0.008s) |##..................| bps=   61408.7 busy=  8.9% conc=1.00
[   0.008s,    0.008s) |####################| bps=   61408.7 busy=100.0% conc=1.00
)";

TEST(ReportE2E, PerPidTimelineOutputsArePinned) {
  const TraceSet set(1);
  const auto text = report("--per-pid --window=0.5 '" + set.dir() + "'");
  if (!text) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
  EXPECT_EQ(text->exit_code, 0);
  EXPECT_EQ(text->out, std::string(kPinnedText) + "\n" + kPinnedTimeline);
  const auto csv = report("--per-pid --window=0.5 --csv '" + set.dir() + "'");
  EXPECT_EQ(csv->exit_code, 0);
  EXPECT_EQ(csv->out, std::string(kPinnedCsv) + kPinnedTimeline);
}

// Seventeen files, one past a power of two, so the merge pads its tree with
// 15 dry leaves: pid 7 runs in every file, and each file adds a pid of its
// own.
std::vector<std::vector<std::uint32_t>> seventeen_file_pids() {
  std::vector<std::vector<std::uint32_t>> pids;
  for (std::uint32_t f = 0; f < 17; ++f) pids.push_back({7, 100 + f});
  return pids;
}

// bpsio_report's --per-pid --window=1 --csv output over the 17-file set of
// seed 5, pinned byte for byte.
constexpr const char* kPinnedSeventeen = R"(files,records,processes,span_s,B,T_s,bps,iops,bw_Bps,arpt_s,peak
17,408,18,0.005347,2038,0.003818,533855.418,76305.740,195151181.682,0.000043980,18
pid,records,blocks,T_s,bps,arpt_s
7,199,984,0.003304,297815.595,0.000044414
100,13,62,0.000562,110259.858,0.000051154
101,13,66,0.000233,282899.982,0.000024388
102,16,82,0.000428,191717.343,0.000032091
103,13,53,0.000526,100680.830,0.000048163
104,11,60,0.000520,115288.394,0.000047403
105,11,64,0.000521,122739.154,0.000056104
106,9,41,0.000298,137536.355,0.000044533
107,17,74,0.000461,160655.126,0.000050847
108,10,50,0.000285,175351.229,0.000032801
109,11,69,0.000446,154826.897,0.000046225
110,9,45,0.000467,96443.176,0.000054170
111,17,87,0.000454,191784.144,0.000036830
112,14,65,0.000536,121181.388,0.000049850
113,11,57,0.000470,121383.258,0.000066165
114,8,38,0.000456,83401.188,0.000056954
115,10,66,0.000166,396398.777,0.000022532
116,16,75,0.000409,183477.261,0.000032714
[   0.000s,    0.001s) |####################| bps=  726568.4 busy=100.0% conc=6.26
[   0.001s,    0.002s) |###################.| bps=  810996.4 busy= 97.3% conc=6.84
[   0.002s,    0.003s) |###################.| bps=  437206.4 busy= 94.3% conc=3.85
[   0.003s,    0.004s) |############........| bps=  161137.0 busy= 62.3% conc=1.79
[   0.004s,    0.005s) |####................| bps=   30595.1 busy= 21.2% conc=1.02
[   0.005s,    0.005s) |####................| bps=   45591.3 busy= 19.0% conc=1.00
)";

TEST(ReportE2E, SeventeenFileOutputIsPinned) {
  const TraceSet set(5, seventeen_file_pids(), 24);
  const auto csv = report("--per-pid --window=1 --csv '" + set.dir() + "'");
  if (!csv) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
  EXPECT_EQ(csv->exit_code, 0);
  EXPECT_EQ(csv->out, kPinnedSeventeen);
}

TEST(ReportE2E, DurationsItCannotRepresentAreUsageErrors) {
  // Unchecked, each would reach the timeline's window CHECK or an
  // out-of-range double -> int64 cast.
  const TraceSet set(1);
  for (const char* flag :
       {"--window=inf", "--window=nan", "--window=0.0000001", "--timeline=inf",
        "--exec-time=nan", "--exec-time=inf", "--exec-time=1e300"}) {
    SCOPED_TRACE(flag);
    const auto run = report(std::string(flag) + " '" + set.dir() + "'");
    if (!run) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
    EXPECT_EQ(run->exit_code, 2) << run->out;
    EXPECT_NE(run->out.find("usage: bpsio_report"), std::string::npos)
        << run->out;
  }
}

TEST(ReportE2E, PidStridesItCannotRepresentAreUsageErrors) {
  const TraceSet set(1);
  // Past 32 bits: unchecked, 4294967297 acted as a stride of 1.
  const auto wide = report("--pid-stride=4294967297 '" + set.dir() + "'");
  if (!wide) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
  EXPECT_EQ(wide->exit_code, 2) << wide->out;
  EXPECT_NE(wide->out.find("usage: bpsio_report"), std::string::npos)
      << wide->out;

  // Three files: file 3's pids become 3 * stride + pid. At 1431655665 the
  // largest, pid 33, lands on 4294967028 and fits.
  const auto fits =
      report("--per-pid --csv --pid-stride=1431655665 '" + set.dir() + "'");
  EXPECT_EQ(fits->exit_code, 0) << fits->out;
  EXPECT_NE(fits->out.find("\n4294967028,"), std::string::npos) << fits->out;
  // 3 * 1431655766 passes 4294967295: unchecked, the pids wrapped.
  const auto wraps = report("--pid-stride=1431655766 '" + set.dir() + "'");
  EXPECT_EQ(wraps->exit_code, 2) << wraps->out;
  EXPECT_NE(wraps->out.find("--pid-stride=1431655766 over 3 files remaps pids "
                            "past 4294967295; use a stride of at most "
                            "1431655765"),
            std::string::npos)
      << wraps->out;
}

TEST(ReportE2E, PidRemapPastUint32FailsTheRun) {
  // Eight files of pid 999: 8 * 536870911 passes the usage check exactly,
  // but file 8's pid 999 remaps past 4294967295 (unchecked, to pid 991).
  const TempDir dir;
  for (int f = 1; f <= 8; ++f) {
    trace::SpillWriter writer(dir.path() + "/t" + std::to_string(f) +
                              ".bpstrace");
    writer.append(trace::make_record(999, 8, SimTime(f), SimTime(f + 10)));
    ASSERT_TRUE(writer.close().ok());
  }
  const auto run =
      report("--per-pid --csv --pid-stride=536870911 '" + dir.path() + "'");
  if (!run) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
  EXPECT_NE(run->exit_code, 0) << run->out;
  EXPECT_NE(run->out.find("out_of_range: pid stride 536870911 remaps pid 999 "
                          "of source 8 past 4294967295"),
            std::string::npos)
      << run->out;
  EXPECT_EQ(run->out.find("\n991,"), std::string::npos) << run->out;
}

TEST(ReportE2E, RecordOutsideTheTimeRuleFailsTheRun) {
  // Unchecked, a record from INT64_MIN to INT64_MAX overflowed the span,
  // T and ARPT sums, and the report printed negative figures with exit 0.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const TempDir dir;
  const std::string path = dir.path() + "/wild.bpstrace";
  trace::SpillWriter writer(path);
  writer.append(trace::make_record(1, 8, SimTime(0), SimTime(10)));
  writer.append(trace::make_record(1, 8, SimTime(10), SimTime(20)));
  writer.append(trace::make_record(1, 8, SimTime(kMin), SimTime(kMax)));
  ASSERT_TRUE(writer.close().ok());
  for (const char* flags : {"", "--per-pid --window=100 --csv"}) {
    SCOPED_TRACE(flags);
    const auto run = report(std::string(flags) + " '" + path + "'");
    if (!run) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
    EXPECT_EQ(run->exit_code, 2) << run->out;
    EXPECT_NE(run->out.find(path + ": record 2 has start " +
                            std::to_string(kMin) + " and end " +
                            std::to_string(kMax) +
                            ", outside 0 <= start <= end"),
              std::string::npos)
        << run->out;
  }
}

TEST(ReportE2E, DaemonWindowsItCannotRepresentAreUsageErrors) {
  // Unchecked, each would reach the window store's CHECK.
  const TempDir dir;
  for (const char* flag : {"--window=inf", "--window=0.0000001"}) {
    SCOPED_TRACE(flag);
    const auto run =
        run_tool("BPSIO_AGENTD_BIN", "--socket='" + dir.path() +
                                         "/agent.sock' --http-port=-1 " + flag);
    if (!run) GTEST_SKIP() << "BPSIO_AGENTD_BIN not in environment";
    EXPECT_EQ(run->exit_code, 2) << run->out;
    EXPECT_NE(run->out.find("usage: bpsio_agentd"), std::string::npos)
        << run->out;
  }
}

TEST(ReportE2E, OversizedTimelineStopsCleanly) {
  // Two valid records, the second ending at 4e18 ns: 100 ms windows would
  // need 4e10 of them, about 2.5 TB.
  const TempDir dir;
  const std::string path = dir.path() + "/far.bpstrace";
  trace::SpillWriter writer(path);
  writer.append(trace::make_record(1, 8, SimTime(0), SimTime(10)));
  writer.append(trace::make_record(1, 8, SimTime(10),
                                   SimTime(4'000'000'000'000'000'000)));
  ASSERT_TRUE(writer.close().ok());

  const auto run = report("--window=100 '" + path + "'");
  if (!run) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
  EXPECT_EQ(run->exit_code, 2) << run->out;
  EXPECT_NE(run->out.find("needs 40000000000 windows of 100 ms, over the "
                          "limit of 1048576; use --window=3814697.265625 or "
                          "larger"),
            std::string::npos)
      << run->out;
  // Without a timeline the same trace reports as usual.
  const auto plain = report("--per-pid '" + path + "'");
  EXPECT_EQ(plain->exit_code, 0) << plain->out;
}

TEST(ReportE2E, MoreFilesThanTheSoftDescriptorLimit) {
  // Each file holds a descriptor while the merge reads it, and a source
  // out of descriptors lifts the soft limit to the hard one: 96 files
  // merge under a soft limit of 48, which the report inherits.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  if (saved.rlim_max < 256) GTEST_SKIP() << "hard descriptor limit below 256";
  const TempDir dir;
  for (std::uint32_t f = 0; f < 96; ++f) {
    char name[32];
    std::snprintf(name, sizeof name, "/file-%02u.bpstrace", f);
    trace::SpillWriter writer(dir.path() + name);
    const std::int64_t start = 1000 * static_cast<std::int64_t>(f);
    writer.append(trace::make_record(f + 1, 8, SimTime(start),
                                     SimTime(start + 500)));
    ASSERT_TRUE(writer.close().ok());
  }
  rlimit low = saved;
  low.rlim_cur = 48;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  const auto run = report("--csv '" + dir.path() + "'");
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  if (!run) GTEST_SKIP() << "BPSIO_REPORT_BIN not in environment";
  EXPECT_EQ(run->exit_code, 0) << run->out;
  EXPECT_NE(run->out.find("\n96,96,96,"), std::string::npos) << run->out;
}

TEST(ExamplesE2E, TimelinesPastTheWindowCapFail) {
  // phase_analysis's run spans about 4.76 s: 4.5 us windows need ~1.06M.
  const auto phases =
      run_tool("BPSIO_PHASE_ANALYSIS_BIN", "--window=0.0000045");
  if (!phases) GTEST_SKIP() << "BPSIO_PHASE_ANALYSIS_BIN not in environment";
  EXPECT_EQ(phases->exit_code, 1) << phases->out.substr(0, 400);
  EXPECT_NE(phases->out.find("windows of 0.0045 ms, over the limit of 1048576"),
            std::string::npos)
      << phases->out.substr(0, 400);
}

}  // namespace
}  // namespace bpsio
