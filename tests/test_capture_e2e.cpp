// End-to-end proof of the real-I/O capture subsystem (ISSUE acceptance):
// run the bundled known-pattern writer (tools/capture_smoke.cpp) under
// LD_PRELOAD=libbpsio_capture.so, then assert the captured traces carry
// exactly the expected B, that T and the span respect wall-clock bounds,
// and that the traces round-trip identically through every analysis path
// (streaming merge == in-memory merge == batch collector) and through the
// bpsio_report CLI.
//
// The binaries involved are injected by CMake through the test ENVIRONMENT
// (BPSIO_CAPTURE_LIB, BPSIO_CAPTURE_SMOKE, BPSIO_REPORT_BIN, and for the
// fortified case BPSIO_CAPTURE_SMOKE_FORTIFIED and BPSIO_NM); when they are
// absent (e.g. running this test binary by hand) the tests skip rather than
// fail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/wallclock.hpp"
#include "metrics/calculators.hpp"
#include "metrics/pipeline.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "trace/trace_collector.hpp"
#include "trace/validate.hpp"

namespace bpsio {
namespace {

constexpr int kProcs = 4;
constexpr int kWrites = 200;
constexpr int kBytes = 65536;  // 128 blocks at 512 B/block
constexpr std::uint64_t kExpectedRecords = kProcs * kWrites;
constexpr std::uint64_t kExpectedBlocks = kProcs * kWrites * (kBytes / 512);

const char* env_or_null(const char* name) { return std::getenv(name); }

struct Paths {
  std::string lib;
  std::string smoke;
  std::string report;
};

/// Binaries from the test environment, or nullopt -> skip.
std::optional<Paths> binaries() {
  const char* lib = env_or_null("BPSIO_CAPTURE_LIB");
  const char* smoke = env_or_null("BPSIO_CAPTURE_SMOKE");
  const char* report = env_or_null("BPSIO_REPORT_BIN");
  if (lib == nullptr || smoke == nullptr || report == nullptr) {
    return std::nullopt;
  }
  return Paths{lib, smoke, report};
}

std::string make_temp_dir(const char* tag) {
  std::string templ = std::string("/tmp/bpsio_e2e_") + tag + "_XXXXXX";
  const char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

std::vector<std::string> trace_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".bpstrace") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string capture_command(const Paths& paths, const std::string& trace_dir,
                            const std::string& data_dir) {
  return "BPSIO_CAPTURE_DIR='" + trace_dir + "' LD_PRELOAD='" + paths.lib +
         "' '" + paths.smoke + "' '" + data_dir + "' " +
         std::to_string(kProcs) + " " + std::to_string(kWrites) + " " +
         std::to_string(kBytes);
}

/// Run a command, returning its full stdout (popen, shell semantics).
std::string run_and_read(const std::string& command, int* exit_code) {
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[512];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr) {
    out += buf;
  }
  *exit_code = pipe != nullptr ? ::pclose(pipe) : -1;
  return out;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= line.size()) {
    const std::size_t next = std::min(line.find(sep, at), line.size());
    out.push_back(line.substr(at, next - at));
    at = next + 1;
  }
  return out;
}

/// A field of a trace file's name, bpsio-<pid>-<tid>-<stamp>.bpstrace:
/// 1 is the pid, 2 the tid.
std::uint32_t file_name_field(const std::string& path, std::size_t field) {
  const std::string name = std::filesystem::path(path).filename().string();
  const std::vector<std::string> parts = split(name, '-');
  EXPECT_GE(parts.size(), 4u) << name;
  return parts.size() >= 4
             ? static_cast<std::uint32_t>(std::stoul(parts[field]))
             : 0;
}

std::uint32_t file_pid(const std::string& path) {
  return file_name_field(path, 1);
}

TEST(CaptureE2E, KnownPatternCapturesExactBlocks) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  const std::string trace_dir = make_temp_dir("traces");
  const std::string data_dir = make_temp_dir("data");
  const std::int64_t wall_start = monotonic_ns();
  const int rc = std::system(capture_command(*paths, trace_dir, data_dir).c_str());
  const std::int64_t wall_end = monotonic_ns();
  ASSERT_EQ(rc, 0);

  // One single-threaded child process => one trace file each; the parent
  // does no captured I/O (its writes, if any, go to excluded stdio fds).
  const std::vector<std::string> files = trace_files(trace_dir);
  ASSERT_EQ(files.size(), static_cast<std::size_t>(kProcs));

  // Path 1 — the production path: streaming k-way merge of the spilled
  // traces, measured in one bounded-memory pass.
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  for (const std::string& file : files) {
    auto source = trace::open_trace_source(file);
    ASSERT_TRUE(source->status().ok()) << source->status().to_string();
    children.push_back(std::move(source));
  }
  trace::MergeOptions keep_pids;
  keep_pids.alignment = trace::TimeAlignment::keep;
  keep_pids.pid_stride = 0;  // real pids are already distinct
  trace::MergedSource merged(std::move(children), keep_pids);
  const auto streamed =
      metrics::measure_stream(merged, /*moved_bytes=*/0, SimDuration(0));
  ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();

  // B is exact: every write() asked for 65536 bytes = 128 blocks, and B
  // counts requested blocks (Section III.A) — short writes, if the kernel
  // split any, must not change it.
  EXPECT_EQ(streamed->app_blocks, kExpectedBlocks);
  EXPECT_EQ(streamed->access_count, kExpectedRecords);

  // T is real time on a real clock: positive, and bounded by the wall
  // clock the whole run (children included) was measured against.
  const double elapsed_s =
      static_cast<double>(wall_end - wall_start) / 1e9;
  EXPECT_GT(streamed->io_time_s, 0.0);
  EXPECT_LE(streamed->io_time_s, elapsed_s);
  EXPECT_GT(streamed->bps, 0.0);
  EXPECT_GE(streamed->peak_concurrency, 1.0);
  EXPECT_LE(streamed->peak_concurrency, static_cast<double>(kProcs));

  // Path 2 — in-memory: load every file, batch-merge, measure the vector.
  // Must agree with the streaming path bit for bit.
  std::vector<std::vector<trace::IoRecord>> loaded;
  std::uint64_t seen_pids = 0;
  for (const std::string& file : files) {
    auto records = trace::load_binary(file);
    ASSERT_TRUE(records.ok()) << records.error().to_string();
    ASSERT_EQ(records->size(), static_cast<std::size_t>(kWrites));
    // Per-pid capture invariant: a single-threaded process's records are
    // start-ordered and internally valid.
    const auto report = trace::validate(*records, true);
    EXPECT_TRUE(report.ok()) << report.to_string();
    ++seen_pids;
    loaded.push_back(std::move(*records));
  }
  EXPECT_EQ(seen_pids, static_cast<std::uint64_t>(kProcs));

  std::vector<trace::IoRecord> flat =
      trace::merge_traces(loaded, keep_pids);
  // The merged records span <= the wall-clock window.
  ASSERT_FALSE(flat.empty());
  std::int64_t lo = flat.front().start_ns, hi = flat.front().end_ns;
  for (const trace::IoRecord& r : flat) {
    lo = std::min(lo, r.start_ns);
    hi = std::max(hi, r.end_ns);
  }
  EXPECT_LE(static_cast<double>(hi - lo) / 1e9, elapsed_s);

  trace::VectorSource in_memory = trace::VectorSource::view(flat);
  const auto from_memory =
      metrics::measure_stream(in_memory, /*moved_bytes=*/0, SimDuration(0));
  ASSERT_TRUE(from_memory.ok());
  EXPECT_EQ(from_memory->app_blocks, streamed->app_blocks);
  EXPECT_EQ(from_memory->access_count, streamed->access_count);
  EXPECT_EQ(from_memory->io_time_s, streamed->io_time_s);
  EXPECT_EQ(from_memory->bps, streamed->bps);
  EXPECT_EQ(from_memory->arpt_s, streamed->arpt_s);

  // Path 3 — the batch collector API.
  trace::TraceCollector collector;
  for (const trace::IoRecord& r : flat) collector.add(r);
  EXPECT_EQ(collector.process_count(), static_cast<std::size_t>(kProcs));
  const metrics::MetricSample batch =
      metrics::measure_run(collector, /*moved_bytes=*/0, SimDuration(0));
  EXPECT_EQ(batch.app_blocks, streamed->app_blocks);
  EXPECT_EQ(batch.io_time_s, streamed->io_time_s);
  EXPECT_EQ(batch.bps, streamed->bps);

  // Path 4 — the CLI: bpsio_report --csv over the capture directory.
  int exit_code = 0;
  const std::string csv = run_and_read(
      "'" + paths->report + "' '" + trace_dir + "' --csv", &exit_code);
  ASSERT_EQ(exit_code, 0) << csv;
  const std::vector<std::string> lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 2u) << csv;
  const std::vector<std::string> header = split(lines[0], ',');
  const std::vector<std::string> row = split(lines[1], ',');
  ASSERT_EQ(header.size(), row.size());
  ASSERT_GE(header.size(), 6u);
  EXPECT_EQ(header[0], "files");
  EXPECT_EQ(row[0], std::to_string(kProcs));
  EXPECT_EQ(header[1], "records");
  EXPECT_EQ(row[1], std::to_string(kExpectedRecords));
  EXPECT_EQ(header[2], "processes");
  EXPECT_EQ(row[2], std::to_string(kProcs));
  EXPECT_EQ(header[4], "B");
  EXPECT_EQ(row[4], std::to_string(kExpectedBlocks));

  std::filesystem::remove_all(trace_dir);
  std::filesystem::remove_all(data_dir);
}

TEST(CaptureE2E, EmptyCaptureReportsZero) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // A header-only trace (process traced, no captured I/O) must flow
  // through bpsio_report as B=0, T=0, exit 0 — not an error.
  const std::string trace_dir = make_temp_dir("empty");
  {
    trace::SpillWriter writer(trace_dir + "/bpsio-1-1-0.bpstrace");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.close().ok());
  }
  int exit_code = 0;
  const std::string csv = run_and_read(
      "'" + paths->report + "' '" + trace_dir + "' --csv", &exit_code);
  ASSERT_EQ(exit_code, 0) << csv;
  const std::vector<std::string> lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 2u) << csv;
  const std::vector<std::string> header = split(lines[0], ',');
  const std::vector<std::string> row = split(lines[1], ',');
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(header[1], "records");
  EXPECT_EQ(row[1], "0");
  EXPECT_EQ(header[4], "B");
  EXPECT_EQ(row[4], "0");
  EXPECT_EQ(header[5], "T_s");
  EXPECT_EQ(row[5], "0.000000");
  std::filesystem::remove_all(trace_dir);
}

TEST(CaptureE2E, ErrnoProbeUnderPreload) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // The interposer's errno contract, checked from the host's side: with
  // capture active (so every wrapper runs its full record path), successful
  // calls must not clobber a planted errno and failing calls must surface
  // exactly the real syscall's errno. Guards the saved_errno bookkeeping in
  // src/capture/interpose.cpp (also enforced statically by bpsio_analyze).
  const std::string trace_dir = make_temp_dir("errno_traces");
  const std::string data_dir = make_temp_dir("errno_data");
  int exit_code = 0;
  const std::string out = run_and_read(
      "BPSIO_CAPTURE_DIR='" + trace_dir + "' LD_PRELOAD='" + paths->lib +
          "' '" + paths->smoke + "' --errno-probe '" + data_dir + "' 2>&1",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("errno-probe: ok"), std::string::npos) << out;

  std::filesystem::remove_all(trace_dir);
  std::filesystem::remove_all(data_dir);
}

TEST(CaptureE2E, MidRunThreadExitAndForkFlushes) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // A 7-record buffer makes flushes fall mid-run at uneven boundaries
  // (23 writes = 3 full buffers + 2 left for the exit flush). Three writing
  // threads per child exercise per-thread files and the thread-exit flush;
  // the parent's 10 pre-fork writes leave 3 records buffered at fork(),
  // which the atfork prepare handler must ship under the parent's pid only.
  constexpr int kChildren = 2;
  constexpr int kThreads = 3;
  constexpr int kChildWrites = 23;
  constexpr int kParentWrites = 10;
  constexpr std::uint64_t kBlocksPerWrite = 4096 / 512;
  const std::string trace_dir = make_temp_dir("flush_traces");
  const std::string data_dir = make_temp_dir("flush_data");
  int exit_code = 0;
  const std::string out = run_and_read(
      "BPSIO_CAPTURE_BUFFER_RECORDS=7 BPSIO_CAPTURE_DIR='" + trace_dir +
          "' LD_PRELOAD='" + paths->lib + "' '" + paths->smoke + "' '" +
          data_dir + "' " + std::to_string(kChildren) + " " +
          std::to_string(kChildWrites) + " 4096 --threads=" +
          std::to_string(kThreads) +
          " --parent-writes=" + std::to_string(kParentWrites),
      &exit_code);
  ASSERT_EQ(exit_code, 0) << out;
  std::uint32_t parent_pid = 0;
  ASSERT_EQ(std::sscanf(out.c_str(), "parent-pid %u", &parent_pid), 1) << out;

  // One trace file per writing thread.
  const std::vector<std::string> files = trace_files(trace_dir);
  ASSERT_EQ(files.size(), static_cast<std::size_t>(kChildren * kThreads + 1));
  std::map<std::uint32_t, std::uint64_t> records_by_pid;
  std::map<std::uint32_t, int> files_by_pid;
  std::uint64_t blocks = 0;
  for (const std::string& file : files) {
    auto records = trace::load_binary(file);
    ASSERT_TRUE(records.ok()) << records.error().to_string();
    // Each file is one thread's stream: start-ordered, and every record
    // carries the pid of the process that wrote the file — a parent record
    // shipped again from a child would carry the parent's pid here.
    const auto report = trace::validate(*records, true);
    EXPECT_TRUE(report.ok()) << file << ": " << report.to_string();
    const std::uint32_t pid = file_pid(file);
    for (const trace::IoRecord& r : *records) {
      EXPECT_EQ(r.pid, pid) << file;
      blocks += r.blocks;
    }
    records_by_pid[pid] += records->size();
    ++files_by_pid[pid];
  }
  ASSERT_EQ(records_by_pid.size(), static_cast<std::size_t>(kChildren + 1));
  EXPECT_EQ(records_by_pid[parent_pid], static_cast<std::uint64_t>(kParentWrites));
  EXPECT_EQ(files_by_pid[parent_pid], 1);
  std::uint64_t total = 0;
  for (const auto& [pid, count] : records_by_pid) {
    total += count;
    if (pid == parent_pid) continue;
    EXPECT_EQ(count, static_cast<std::uint64_t>(kThreads * kChildWrites))
        << "pid " << pid;
    EXPECT_EQ(files_by_pid[pid], kThreads) << "pid " << pid;
  }
  const std::uint64_t calls = kChildren * kThreads * kChildWrites + kParentWrites;
  EXPECT_EQ(total, calls);
  EXPECT_EQ(blocks, calls * kBlocksPerWrite);

  std::filesystem::remove_all(trace_dir);
  std::filesystem::remove_all(data_dir);
}

TEST(CaptureE2E, OversizedBufferIsClampedNotFatal) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // A buffer far beyond what memory (or a daemon's frame limit) allows must
  // not kill the traced application: the value is clamped at parse time
  // with a warning, and every record still arrives.
  const std::string trace_dir = make_temp_dir("oversized_traces");
  const std::string data_dir = make_temp_dir("oversized_data");
  int exit_code = 0;
  const std::string out = run_and_read(
      "BPSIO_CAPTURE_BUFFER_RECORDS=99999999999 BPSIO_CAPTURE_DIR='" +
          trace_dir + "' LD_PRELOAD='" + paths->lib + "' '" + paths->smoke +
          "' '" + data_dir + "' 1 5 4096 2>&1",
      &exit_code);
  ASSERT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("BPSIO_CAPTURE_BUFFER_RECORDS"), std::string::npos)
      << out;
  const std::vector<std::string> files = trace_files(trace_dir);
  ASSERT_EQ(files.size(), 1u);
  auto records = trace::load_binary(files[0]);
  ASSERT_TRUE(records.ok()) << records.error().to_string();
  ASSERT_EQ(records->size(), 5u);
  std::uint64_t blocks = 0;
  for (const trace::IoRecord& r : *records) blocks += r.blocks;
  EXPECT_EQ(blocks, 5u * (4096 / 512));

  std::filesystem::remove_all(trace_dir);
  std::filesystem::remove_all(data_dir);
}

TEST(CaptureE2E, ExcludedFdOpenedThroughWrappersRecordsNothing) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // The record verdict is taken when the wrappers see the open: a data fd
  // the exclude list names must record nothing, while the same run under
  // the default list records every write. The child's fd number depends
  // on what the test runner left open, so the list covers 3..1023.
  std::string all_but_stdio;
  for (int fd = 3; fd < 1024; ++fd) {
    all_but_stdio += (fd > 3 ? "," : "") + std::to_string(fd);
  }
  const std::string data_dir = make_temp_dir("verdict_data");
  for (const bool excluded : {false, true}) {
    const std::string trace_dir = make_temp_dir("verdict_traces");
    const std::string exclude =
        excluded ? "BPSIO_CAPTURE_EXCLUDE_FDS=" + all_but_stdio + " " : "";
    const std::string command = exclude + "BPSIO_CAPTURE_DIR='" + trace_dir +
                                "' LD_PRELOAD='" + paths->lib + "' '" +
                                paths->smoke + "' '" + data_dir + "' 1 5 4096";
    ASSERT_EQ(std::system(command.c_str()), 0);
    const std::vector<std::string> files = trace_files(trace_dir);
    if (excluded) {
      EXPECT_TRUE(files.empty()) << files.size() << " trace file(s)";
    } else {
      ASSERT_EQ(files.size(), 1u);
      auto records = trace::load_binary(files[0]);
      ASSERT_TRUE(records.ok()) << records.error().to_string();
      EXPECT_EQ(records->size(), 5u);
    }
    std::filesystem::remove_all(trace_dir);
  }
  std::filesystem::remove_all(data_dir);
}

TEST(CaptureE2E, FortifiedBuildRecordsEveryCall) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";
  const char* fortified = env_or_null("BPSIO_CAPTURE_SMOKE_FORTIFIED");
  const char* nm = env_or_null("BPSIO_NM");
  if (fortified == nullptr || nm == nullptr) {
    GTEST_SKIP() << "fortified writer not in environment";
  }

  // A -D_FORTIFY_SOURCE=2 build calls __open_2 for a two-argument open
  // with run-time flags, and __read_chk/__pread_chk/__pread64_chk for a
  // read into a buffer of known size: without wrappers for them, such a
  // program leaves no trace at all. The fortified writer must really call
  // them, or this case proves nothing.
  int exit_code = 0;
  const std::string imports = run_and_read(
      "'" + std::string(nm) + "' -D --undefined-only '" + fortified + "'",
      &exit_code);
  ASSERT_EQ(exit_code, 0) << imports;
  // nm prints "U <symbol>", versioned as "<symbol>@GLIBC_..." by newer
  // binutils.
  const auto imported = [&imports](const std::string& symbol) {
    for (std::size_t at = imports.find(" " + symbol); at != std::string::npos;
         at = imports.find(" " + symbol, at + 1)) {
      const std::size_t end = at + 1 + symbol.size();
      if (end == imports.size() || imports[end] == '@' ||
          imports[end] == '\n') {
        return true;
      }
    }
    return false;
  };
  for (const char* symbol : {"__open_2", "__open64_2", "__openat_2",
                             "__openat64_2", "__read_chk", "__pread_chk",
                             "__pread64_chk", "creat", "creat64"}) {
    EXPECT_TRUE(imported(symbol)) << symbol << " not imported:\n" << imports;
  }

  // 4 children, one per two-argument open, each creating its file with
  // creat or creat64, writing it 8 times and reading it back 8 times
  // through read, pread and pread64: the plain and the fortified build
  // must both record every call.
  constexpr int kChildren = 4;
  constexpr int kCallsPerFile = 8;
  constexpr std::uint64_t calls = kChildren * kCallsPerFile * 2;
  for (const std::string& smoke : {paths->smoke, std::string(fortified)}) {
    const std::string trace_dir = make_temp_dir("fortify_traces");
    const std::string data_dir = make_temp_dir("fortify_data");
    const std::string out = run_and_read(
        "BPSIO_CAPTURE_DIR='" + trace_dir + "' LD_PRELOAD='" + paths->lib +
            "' '" + smoke + "' '" + data_dir + "' " +
            std::to_string(kChildren) + " " + std::to_string(kCallsPerFile) +
            " 4096 --read-back 2>&1",
        &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    const std::vector<std::string> files = trace_files(trace_dir);
    EXPECT_EQ(files.size(), static_cast<std::size_t>(kChildren)) << smoke;
    std::uint64_t records = 0;
    std::uint64_t blocks = 0;
    for (const std::string& file : files) {
      auto loaded = trace::load_binary(file);
      ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
      records += loaded->size();
      for (const trace::IoRecord& r : *loaded) blocks += r.blocks;
    }
    EXPECT_EQ(records, calls) << smoke;
    EXPECT_EQ(blocks, calls * (4096 / 512)) << smoke;
    std::filesystem::remove_all(trace_dir);
    std::filesystem::remove_all(data_dir);
  }
}

TEST(CaptureE2E, RecordsLieInsideTheCallersOwnClockReads) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // The traced program reads CLOCK_MONOTONIC right before and right after
  // each call (capture_smoke --bracket-calls): 2 threads of 50,000 preads
  // with a 30 ms pause, longer than a tick segment, after every 10,000, and
  // a fork halfway through the first thread. Whichever stamps the
  // interposer takes (TSC ticks mapped to ns per segment where the kernel's
  // clocksource is tsc, clock_gettime elsewhere), every record must lie
  // inside its call's bracket. Once with the default buffer, which flushes
  // every 4096 records, and once with one that holds a thread's whole run,
  // where segments end on the record path.
  constexpr long kCalls = 50'000;
  std::ifstream clocksource(
      "/sys/devices/system/clocksource/clocksource0/current_clocksource");
  std::string source = "unknown";
  std::getline(clocksource, source);
  for (const char* buffer : {"4096", "65536"}) {
    const std::string trace_dir = make_temp_dir("bracket_traces");
    const std::string data_dir = make_temp_dir("bracket_data");
    int exit_code = 0;
    const std::string out = run_and_read(
        std::string("BPSIO_CAPTURE_BUFFER_RECORDS=") + buffer +
            " BPSIO_CAPTURE_DIR='" + trace_dir + "' LD_PRELOAD='" +
            paths->lib + "' '" + paths->smoke + "' --bracket-calls=" +
            std::to_string(kCalls) + " '" + data_dir + "' 2>&1",
        &exit_code);
    ASSERT_EQ(exit_code, 0) << out;

    // Two threads and the fork child: one trace file and one bracket file
    // each, matched by pid and tid.
    const std::vector<std::string> files = trace_files(trace_dir);
    ASSERT_EQ(files.size(), 3u);
    std::uint64_t records = 0;
    std::int64_t lead = INT64_MAX;   // smallest bracket start to record start
    std::int64_t trail = INT64_MAX;  // smallest record end to bracket end
    for (const std::string& file : files) {
      auto loaded = trace::load_binary(file);
      ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
      const auto report = trace::validate(*loaded, true);
      EXPECT_TRUE(report.ok()) << file << ": " << report.to_string();
      const std::string bracket_path =
          data_dir + "/brackets." + std::to_string(file_name_field(file, 1)) +
          "." + std::to_string(file_name_field(file, 2));
      std::ifstream in(bracket_path, std::ios::binary);
      ASSERT_TRUE(in) << bracket_path;
      std::vector<std::int64_t> brackets(2 * loaded->size() + 1);
      in.read(reinterpret_cast<char*>(brackets.data()),
              static_cast<std::streamsize>(brackets.size() *
                                           sizeof(std::int64_t)));
      ASSERT_EQ(in.gcount(), static_cast<std::streamsize>(
                                 2 * loaded->size() * sizeof(std::int64_t)))
          << file << ": one bracket per record";
      std::uint64_t outside = 0;
      for (std::size_t i = 0; i < loaded->size(); ++i) {
        const trace::IoRecord& r = (*loaded)[i];
        const std::int64_t before = brackets[2 * i];
        const std::int64_t after = brackets[2 * i + 1];
        if (r.start_ns < before || r.end_ns > after) {
          if (outside++ == 0) {
            ADD_FAILURE() << file << " record " << i << ": [" << r.start_ns
                          << ", " << r.end_ns << "] outside its call's ["
                          << before << ", " << after << "]";
          }
        }
        lead = std::min(lead, r.start_ns - before);
        trail = std::min(trail, after - r.end_ns);
        EXPECT_EQ(r.blocks, 4096u / 512) << file << " record " << i;
      }
      EXPECT_EQ(outside, 0u) << file << ": records outside their brackets";
      records += loaded->size();
    }
    EXPECT_EQ(records, static_cast<std::uint64_t>(2 * kCalls + kCalls / 10));
    std::printf("clocksource %s, buffer %s: smallest gaps %lld ns before a "
                "record and %lld ns after\n",
                source.c_str(), buffer, static_cast<long long>(lead),
                static_cast<long long>(trail));
    std::filesystem::remove_all(trace_dir);
    std::filesystem::remove_all(data_dir);
  }
}

TEST(CaptureE2E, PreloadWithoutCaptureDirIsPassthrough) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "capture binaries not in environment";

  // No BPSIO_CAPTURE_DIR => pure passthrough: the writer must succeed and
  // no trace may appear anywhere (we give it a scratch cwd to prove it).
  const std::string data_dir = make_temp_dir("passthrough");
  const std::string command = "cd '" + data_dir + "' && LD_PRELOAD='" +
                              paths->lib + "' '" + paths->smoke + "' '" +
                              data_dir + "' 1 10 4096";
  ASSERT_EQ(std::system(command.c_str()), 0);
  EXPECT_TRUE(trace_files(data_dir).empty());
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace bpsio
