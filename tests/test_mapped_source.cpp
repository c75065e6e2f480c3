// MappedTraceSource (trace/mapped_source.hpp), the one .bpstrace reader:
// it streams exactly the file's records, fails every corruption with a
// pinned code and text (the same ones load_binary reports), and its spans
// genuinely alias the mapping (zero copy) while staying safe to abandon
// mid-stream.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "merge_oracle.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio {
namespace {

using trace::IoRecord;
using trace::make_record;

std::vector<IoRecord> drain(trace::RecordSource& source) {
  std::vector<IoRecord> all;
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

std::vector<IoRecord> ordered_records(std::size_t n) {
  std::vector<IoRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::int64_t>(i) * 10;
    records.push_back(make_record(static_cast<std::uint32_t>(i % 5), i % 7 + 1,
                                  SimTime(s), SimTime(s + 25)));
  }
  return records;
}

std::string write_spill(const std::string& path,
                        const std::vector<IoRecord>& records,
                        std::size_t batch_records = 16) {
  trace::SpillWriter writer(path, batch_records);
  for (const auto& r : records) writer.append(r);
  EXPECT_TRUE(writer.close().ok());
  return path;
}

/// Overwrite `path` with exactly `bytes`.
void write_raw(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<char> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

TEST(MappedTraceSource, StreamsExactlyTheFileContents) {
  const auto records = ordered_records(100);
  const std::string path =
      write_spill("/tmp/bpsio_map_stream.bpstrace", records);
  trace::MappedTraceSource source(path, /*chunk_records=*/7);
  ASSERT_TRUE(source.status().ok()) << source.status().to_string();
  EXPECT_EQ(source.record_count(), 100u);
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), 100u);
  EXPECT_EQ(drain(source), records);
  EXPECT_TRUE(source.status().ok());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, ChunksAreContiguousWindowsOverTheMapping) {
  // Zero copy: consecutive chunks inside one mapped window (this whole
  // file fits in one page) are adjacent in memory — a copying source would
  // hand back the same scratch buffer every time.
  const auto records = ordered_records(30);
  const std::string path = write_spill("/tmp/bpsio_map_zc.bpstrace", records);
  trace::MappedTraceSource source(path, /*chunk_records=*/10);
  ASSERT_TRUE(source.status().ok());
  const auto first = source.next_chunk();
  const auto second = source.next_chunk();
  ASSERT_EQ(first.size(), 10u);
  ASSERT_EQ(second.size(), 10u);
  EXPECT_EQ(second.data(), first.data() + first.size());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, TruncatedFileFailsWithThePinnedText) {
  const auto records = ordered_records(40);
  const std::string path =
      write_spill("/tmp/bpsio_map_trunc.bpstrace", records);
  // Chop the last 1.5 records off the file.
  auto bytes = read_raw(path);
  bytes.resize(bytes.size() - sizeof(IoRecord) - sizeof(IoRecord) / 2);
  write_raw(path, bytes);

  trace::MappedTraceSource mapped(path, /*chunk_records=*/16);
  ASSERT_TRUE(mapped.status().ok());  // header still intact
  // The two whole chunks come through; the third cannot be filled whole
  // and delivers nothing.
  EXPECT_EQ(drain(mapped),
            std::vector<IoRecord>(records.begin(), records.begin() + 32));
  ASSERT_FALSE(mapped.status().ok());
  EXPECT_EQ(mapped.status().error().code, Errc::io_error);
  EXPECT_EQ(mapped.status().error().message,
            "trace truncated: header claims 40 records, found 38");
  // The loader drains the same source and fails the same way.
  const auto loaded = trace::load_binary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().message, mapped.status().error().message);
  // A failed source yields nothing further and hides its hint.
  EXPECT_TRUE(mapped.next_chunk().empty());
  EXPECT_FALSE(mapped.size_hint().has_value());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, BadHeadersFailWithThePinnedTexts) {
  const std::string path = "/tmp/bpsio_map_badheader.bpstrace";
  const auto records = ordered_records(8);
  write_spill(path, records);
  const auto good = read_raw(path);

  // One corruption per header field the parser validates, plus a header
  // shorter than 24 bytes.
  struct Corruption {
    std::vector<char> bytes;
    Errc code;
    std::string message;
  };
  std::vector<Corruption> corruptions;
  auto bad_magic = good;
  bad_magic[0] = 'X';
  corruptions.push_back(
      {bad_magic, Errc::invalid_argument, "bad trace magic"});
  auto bad_version = good;
  bad_version[4] = 99;
  corruptions.push_back({bad_version, Errc::unsupported,
                         "unsupported trace version 99 (expected 2)"});
  auto bad_record_size = good;
  bad_record_size[8] = 16;
  corruptions.push_back(
      {bad_record_size, Errc::unsupported,
       "non-32-byte record size 16 (paper-format records are 32 bytes)"});
  corruptions.push_back({std::vector<char>(good.begin(), good.begin() + 10),
                         Errc::invalid_argument,
                         "truncated trace header (10 of 24 bytes)"});

  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    write_raw(path, corruptions[i].bytes);
    trace::MappedTraceSource mapped(path);
    ASSERT_FALSE(mapped.status().ok()) << "corruption " << i;
    EXPECT_EQ(mapped.status().error().code, corruptions[i].code)
        << "corruption " << i;
    EXPECT_EQ(mapped.status().error().message, corruptions[i].message)
        << "corruption " << i;
    EXPECT_TRUE(mapped.next_chunk().empty()) << "corruption " << i;
    EXPECT_FALSE(mapped.size_hint().has_value()) << "corruption " << i;
    EXPECT_EQ(mapped.record_count(), 0u) << "corruption " << i;
  }
  std::remove(path.c_str());
}

TEST(MappedTraceSource, EmptyFileFailsWithThePinnedText) {
  const std::string path = "/tmp/bpsio_map_empty.bpstrace";
  write_raw(path, {});
  trace::MappedTraceSource mapped(path);
  ASSERT_FALSE(mapped.status().ok());
  EXPECT_EQ(mapped.status().error().code, Errc::invalid_argument);
  EXPECT_EQ(mapped.status().error().message,
            "truncated trace header (0 of 24 bytes)");
  std::remove(path.c_str());
}

TEST(MappedTraceSource, AFifoWithoutAWriterFailsLikeAnEmptyFile) {
  // No writer ever opens the FIFO, so a blocking open would wait forever:
  // the open runs in a child with a deadline, and the test fails instead
  // of hanging if it blocks.
  const std::string path = "/tmp/bpsio_map_fifo." + std::to_string(::getpid());
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const Status status = trace::open_trace_source(path)->status();
    const bool pinned = !status.ok() &&
                        status.error().code == Errc::invalid_argument &&
                        status.error().message ==
                            "truncated trace header (0 of 24 bytes)";
    if (!pinned) std::fprintf(stderr, "got: %s\n", status.to_string().c_str());
    ::_exit(pinned ? 0 : 1);
  }
  int wait_status = 0;
  pid_t reaped = 0;
  for (int ms = 0; ms < 5000 && reaped == 0; ++ms) {
    reaped = ::waitpid(child, &wait_status, WNOHANG);
    if (reaped == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &wait_status, 0);
  }
  std::remove(path.c_str());
  ASSERT_EQ(reaped, child) << "opening the FIFO blocked for 5 s";
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0) << "not the pinned empty-file text";
}

TEST(MappedTraceSource, OpensPastTheSoftDescriptorLimitUpToTheHardOne) {
  // Every open source holds a descriptor. In a child, whose limits die
  // with it: under a soft limit of 16 and a hard one of 48, the sources
  // lift the soft limit and keep opening; at the hard limit a source
  // fails as busy, not as a missing file.
  const std::string path =
      write_spill("/tmp/bpsio_map_descriptors.bpstrace", ordered_records(4));
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    rlimit low{16, 48};
    if (::setrlimit(RLIMIT_NOFILE, &low) != 0) ::_exit(2);
    std::vector<std::unique_ptr<trace::MappedTraceSource>> open;
    for (int i = 0; i < 64; ++i) {
      open.push_back(std::make_unique<trace::MappedTraceSource>(path));
      const Status status = open.back()->status();
      if (status.ok()) continue;
      const bool pinned =
          i > 16 && status.error().code == Errc::busy &&
          status.error().message ==
              "cannot open " + path +
                  ": too many open files (the limit is 48 descriptors)";
      if (!pinned) {
        std::fprintf(stderr, "source %d: %s\n", i, status.to_string().c_str());
      }
      ::_exit(pinned ? 0 : 1);
    }
    ::_exit(3);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  std::remove(path.c_str());
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0)
      << "1: not busy or before the soft limit was lifted; 2: setrlimit "
         "failed; 3: never ran out";
}

TEST(MappedTraceSource, ZeroRecordFileStreamsNothingCleanly) {
  const std::string path =
      write_spill("/tmp/bpsio_map_zero.bpstrace", {});
  trace::MappedTraceSource mapped(path);
  ASSERT_TRUE(mapped.status().ok()) << mapped.status().to_string();
  EXPECT_EQ(mapped.record_count(), 0u);
  ASSERT_TRUE(mapped.size_hint().has_value());
  EXPECT_EQ(*mapped.size_hint(), 0u);
  EXPECT_TRUE(mapped.next_chunk().empty());
  EXPECT_TRUE(mapped.status().ok());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, HintNeverExceedsTheRecordsInTheFile) {
  // A header claiming more records than the file holds must not inflate
  // what a consumer reserves.
  const std::string path =
      write_spill("/tmp/bpsio_map_hint.bpstrace", ordered_records(3));
  auto bytes = read_raw(path);
  trace::TraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  header.record_count = 1ULL << 39;
  std::memcpy(bytes.data(), &header, sizeof header);
  write_raw(path, bytes);
  trace::MappedTraceSource mapped(path);
  ASSERT_TRUE(mapped.status().ok());
  EXPECT_EQ(mapped.record_count(), 1ULL << 39);
  EXPECT_EQ(mapped.size_hint(), std::optional<std::uint64_t>(3));
  std::remove(path.c_str());
}

TEST(MappedTraceSource, MissingFileFailsUpFront) {
  const std::string path = "/tmp/bpsio_no_such_map.bpstrace";
  trace::MappedTraceSource source(path);
  ASSERT_FALSE(source.status().ok());
  EXPECT_EQ(source.status().error().code, Errc::not_found);
  EXPECT_EQ(source.status().error().message, "cannot open " + path);
  EXPECT_TRUE(source.next_chunk().empty());
  EXPECT_FALSE(source.size_hint().has_value());
  const auto opened = trace::open_trace_source(path);
  EXPECT_EQ(opened->status().error().message, "cannot open " + path);
}

TEST(MappedTraceSource, MidStreamAbandonmentIsSafe) {
  // Destroying the source (and thus the mapping) halfway through a stream
  // must be clean: records already copied out stay intact, nothing dangles.
  // Under ASan this is the unmap-safety probe for the whole span contract.
  const auto records = ordered_records(64);
  const std::string path =
      write_spill("/tmp/bpsio_map_abandon.bpstrace", records);
  std::vector<IoRecord> copied;
  {
    trace::MappedTraceSource source(path, /*chunk_records=*/16);
    ASSERT_TRUE(source.status().ok());
    const auto chunk = source.next_chunk();
    ASSERT_EQ(chunk.size(), 16u);
    copied.assign(chunk.begin(), chunk.end());
    (void)source.next_chunk();  // leave the stream half-consumed
  }
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(copied[i], records[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

/// The mappings of file `path` in /proc/self/smaps: how many there are and
/// their resident KiB in all; a count of -1 where smaps is unavailable.
struct FileMappings {
  int count = -1;
  long rss_kib = 0;
};

FileMappings file_mappings(const std::string& path) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return {};
  // A mapping's header line ends with the file's resolved path.
  const std::string suffix = " " + std::filesystem::canonical(path).string();
  FileMappings found{0, 0};
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    const std::size_t dash = line.find('-');
    const std::size_t space = line.find(' ');
    if (dash != std::string::npos && space != std::string::npos &&
        dash < space && line.find(':') > space) {
      inside = line.size() > suffix.size() &&
               line.compare(line.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
      found.count += inside ? 1 : 0;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      std::istringstream fields(line.substr(4));
      long kib = 0;
      fields >> kib;
      found.rss_kib += kib;
    }
  }
  return found;
}

TEST(MappedTraceSource, ReleasesPagesBehindTheCursor) {
  // Residency stays O(chunk): while a span is live the file has one
  // mapping, of the chunk's own pages, and none once the stream ends; the
  // records stay exactly the file's at every chunk size, page-straddling
  // ones included. The file is written in 2 MiB batches and holds 4.3
  // MiB, so the page cache may keep it in 2 MiB folios, which a mapping of
  // the whole file maps whole.
  const auto records = ordered_records(140'000);
  const std::string path = write_spill("/tmp/bpsio_map_release.bpstrace",
                                       records, std::size_t{1} << 16);
  if (file_mappings(path).count < 0) {
    std::remove(path.c_str());
    GTEST_SKIP() << "no /proc/self/smaps";
  }
  // Behind the 24-byte header, none of these chunks ends on a page edge.
  for (const std::size_t chunk : {300u, 1000u, 4096u}) {
    trace::MappedTraceSource source(path, chunk);
    ASSERT_TRUE(source.status().ok());
    std::vector<IoRecord> all;
    long peak_kib = 0;
    for (auto span = source.next_chunk(); !span.empty();
         span = source.next_chunk()) {
      all.insert(all.end(), span.begin(), span.end());
      const FileMappings mapped = file_mappings(path);
      ASSERT_EQ(mapped.count, 1) << "chunk " << chunk << " at record "
                                 << all.size();
      peak_kib = std::max(peak_kib, mapped.rss_kib);
    }
    EXPECT_EQ(file_mappings(path).count, 0) << "chunk " << chunk;
    EXPECT_EQ(all, records) << "chunk " << chunk;
    // One chunk, two fault-around windows (64 KiB each by default) and a
    // few pages of slack; the whole file would be 4375 KiB.
    const long budget_kib =
        static_cast<long>(chunk * sizeof(IoRecord) / 1024) + 2 * 64 + 16;
    EXPECT_LE(peak_kib, budget_kib) << "chunk " << chunk;
  }
  std::remove(path.c_str());
}

TEST(OpenTraceSource, ReturnsTheMapping) {
  const auto records = ordered_records(20);
  const std::string path =
      write_spill("/tmp/bpsio_map_factory.bpstrace", records);
  const auto source = trace::open_trace_source(path, /*chunk_records=*/8);
  ASSERT_TRUE(source->status().ok());
  EXPECT_NE(dynamic_cast<trace::MappedTraceSource*>(source.get()), nullptr);
  EXPECT_EQ(drain(*source), records);
  std::remove(path.c_str());
}

TEST(OpenTraceSource, MergedMappedChildrenFollowTheTieBreak) {
  // The drain/report merge over mapped children: (start, end) order, equal
  // keys by child index, then in each child's own order.
  std::vector<IoRecord> a;
  std::vector<IoRecord> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(make_record(1, 2, SimTime(i * 20), SimTime(i * 20 + 30)));
    b.push_back(make_record(2, 3, SimTime(i * 20), SimTime(i * 20 + 30)));
    b.push_back(make_record(2, 1, SimTime(i * 20 + 5), SimTime(i * 20 + 9)));
  }
  const std::string pa = write_spill("/tmp/bpsio_map_merge_a.bpstrace", a);
  const std::string pb = write_spill("/tmp/bpsio_map_merge_b.bpstrace", b);

  trace::MergeOptions keep;
  keep.alignment = trace::TimeAlignment::keep;
  keep.pid_stride = 0;

  std::vector<std::unique_ptr<trace::RecordSource>> children;
  children.push_back(trace::open_trace_source(pa, 16));
  children.push_back(trace::open_trace_source(pb, 16));
  trace::MergedSource merged(std::move(children), keep);

  EXPECT_EQ(drain(merged), trace::merge_oracle({a, b}, keep));
  EXPECT_TRUE(merged.status().ok());
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

}  // namespace
}  // namespace bpsio
