// MappedTraceSource (trace/mapped_source.hpp): the mmap twin of
// SpilledTraceSource must be bit-identical to it on every input — same
// records, same status() behavior, same error text — and its spans must
// genuinely alias the mapping (zero copy) while staying safe to abandon
// mid-stream. Failure modes are exercised differentially: whatever the
// ifstream source says about a corrupt file, the mapped source must say
// verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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
                        const std::vector<IoRecord>& records) {
  trace::SpillWriter writer(path, /*batch_records=*/16);
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
  // Zero-copy means consecutive chunks are literally adjacent in memory —
  // a copying source would hand back the same scratch buffer every time.
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

TEST(MappedTraceSource, MatchesSpilledSourceOnTruncatedFile) {
  const auto records = ordered_records(40);
  const std::string path =
      write_spill("/tmp/bpsio_map_trunc.bpstrace", records);
  // Chop the last 1.5 records off the file.
  auto bytes = read_raw(path);
  bytes.resize(bytes.size() - sizeof(IoRecord) - sizeof(IoRecord) / 2);
  write_raw(path, bytes);

  trace::MappedTraceSource mapped(path, /*chunk_records=*/16);
  trace::SpilledTraceSource spilled(path, /*chunk_records=*/16);
  ASSERT_TRUE(mapped.status().ok());  // header still intact
  ASSERT_TRUE(spilled.status().ok());
  // Both deliver the same complete chunks before failing...
  EXPECT_EQ(drain(mapped), drain(spilled));
  EXPECT_FALSE(mapped.status().ok());
  EXPECT_FALSE(spilled.status().ok());
  // ...and fail with byte-identical messages, which are also the loader's.
  EXPECT_EQ(mapped.status().error().message, spilled.status().error().message);
  const auto loaded = trace::load_binary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(mapped.status().error().message, loaded.error().message);
  // A failed source yields nothing further and hides its hint.
  EXPECT_TRUE(mapped.next_chunk().empty());
  EXPECT_FALSE(mapped.size_hint().has_value());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, MatchesSpilledSourceOnBadHeaders) {
  const std::string path = "/tmp/bpsio_map_badheader.bpstrace";
  const auto records = ordered_records(8);
  write_spill(path, records);
  const auto good = read_raw(path);

  // One corruption per header field the parser validates, plus a header
  // shorter than 24 bytes.
  std::vector<std::vector<char>> corruptions;
  auto bad_magic = good;
  bad_magic[0] = 'X';
  corruptions.push_back(bad_magic);
  auto bad_version = good;
  bad_version[4] = 99;
  corruptions.push_back(bad_version);
  auto bad_record_size = good;
  bad_record_size[8] = 16;
  corruptions.push_back(bad_record_size);
  corruptions.push_back(std::vector<char>(good.begin(), good.begin() + 10));

  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    write_raw(path, corruptions[i]);
    trace::MappedTraceSource mapped(path);
    trace::SpilledTraceSource spilled(path);
    EXPECT_FALSE(mapped.status().ok()) << "corruption " << i;
    EXPECT_FALSE(spilled.status().ok()) << "corruption " << i;
    EXPECT_EQ(mapped.status().error().message,
              spilled.status().error().message)
        << "corruption " << i;
    EXPECT_EQ(mapped.status().error().code, spilled.status().error().code)
        << "corruption " << i;
    // A malformed FILE is not an environment failure: the factory must NOT
    // fall back and give the corruption a second chance.
    EXPECT_FALSE(mapped.environment_failed()) << "corruption " << i;
    EXPECT_TRUE(mapped.next_chunk().empty()) << "corruption " << i;
    EXPECT_FALSE(mapped.size_hint().has_value()) << "corruption " << i;
    EXPECT_EQ(mapped.record_count(), 0u) << "corruption " << i;
  }
  std::remove(path.c_str());
}

TEST(MappedTraceSource, EmptyFileMatchesSpilledSource) {
  const std::string path = "/tmp/bpsio_map_empty.bpstrace";
  write_raw(path, {});
  trace::MappedTraceSource mapped(path);
  trace::SpilledTraceSource spilled(path);
  EXPECT_FALSE(mapped.status().ok());
  EXPECT_FALSE(spilled.status().ok());
  EXPECT_EQ(mapped.status().error().message, spilled.status().error().message);
  EXPECT_FALSE(mapped.environment_failed());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, ZeroRecordFileStreamsNothingCleanly) {
  const std::string path =
      write_spill("/tmp/bpsio_map_zero.bpstrace", {});
  trace::MappedTraceSource mapped(path);
  trace::SpilledTraceSource spilled(path);
  ASSERT_TRUE(mapped.status().ok()) << mapped.status().to_string();
  ASSERT_TRUE(spilled.status().ok());
  EXPECT_EQ(mapped.record_count(), 0u);
  ASSERT_TRUE(mapped.size_hint().has_value());
  EXPECT_EQ(*mapped.size_hint(), 0u);
  EXPECT_TRUE(mapped.next_chunk().empty());
  EXPECT_TRUE(mapped.status().ok());
  std::remove(path.c_str());
}

TEST(MappedTraceSource, MissingFileFailsUpFront) {
  trace::MappedTraceSource source("/tmp/bpsio_no_such_map.bpstrace");
  EXPECT_FALSE(source.status().ok());
  EXPECT_TRUE(source.environment_failed());
  EXPECT_TRUE(source.next_chunk().empty());
  EXPECT_FALSE(source.size_hint().has_value());
  // The factory's fallback reports the missing file with the exact text the
  // ifstream source always used.
  trace::SpilledTraceSource spilled("/tmp/bpsio_no_such_map.bpstrace");
  const auto fallback =
      trace::open_trace_source("/tmp/bpsio_no_such_map.bpstrace");
  EXPECT_FALSE(fallback->status().ok());
  EXPECT_EQ(fallback->status().error().message,
            spilled.status().error().message);
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

/// Resident KiB of the mapping that contains `p`, from /proc/self/smaps;
/// -1 where that file is unavailable.
long mapping_rss_kib(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    const std::size_t dash = line.find('-');
    const std::size_t space = line.find(' ');
    if (dash != std::string::npos && space != std::string::npos &&
        dash < space && line.find(':') > space) {
      const auto lo = std::strtoull(line.substr(0, dash).c_str(), nullptr, 16);
      const auto hi = std::strtoull(
          line.substr(dash + 1, space - dash - 1).c_str(), nullptr, 16);
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      std::istringstream fields(line.substr(4));
      long kib = -1;
      fields >> kib;
      return kib;
    }
  }
  return -1;
}

TEST(MappedTraceSource, ReleasesPagesBehindTheCursor) {
  // Residency stays O(chunk): pages before the returned chunk are released
  // as the cursor passes them, and the records stay exactly the file's at
  // every chunk size, page-straddling ones included.
  const auto records = ordered_records(40'000);  // 1.25 MiB of records
  if (mapping_rss_kib(records.data()) < 0) {
    GTEST_SKIP() << "no /proc/self/smaps";
  }
  const std::string path =
      write_spill("/tmp/bpsio_map_release.bpstrace", records);
  // Behind the 24-byte header, none of these chunks ends on a page edge.
  for (const std::size_t chunk : {300u, 1000u, 4096u}) {
    trace::MappedTraceSource source(path, chunk);
    ASSERT_TRUE(source.status().ok());
    std::vector<IoRecord> all;
    long peak_kib = 0;
    for (auto span = source.next_chunk(); !span.empty();
         span = source.next_chunk()) {
      all.insert(all.end(), span.begin(), span.end());
      const long kib = mapping_rss_kib(span.data());
      EXPECT_GE(kib, 0) << "chunk " << chunk;
      peak_kib = std::max(peak_kib, kib);
    }
    EXPECT_EQ(all, records) << "chunk " << chunk;
    // One chunk, two fault-around windows (64 KiB each by default) and a
    // few pages of slack; the whole file would be 1250 KiB.
    const long budget_kib =
        static_cast<long>(chunk * sizeof(IoRecord) / 1024) + 2 * 64 + 16;
    EXPECT_LE(peak_kib, budget_kib) << "chunk " << chunk;
  }
  std::remove(path.c_str());
}

TEST(OpenTraceSource, PrefersTheMappingAndFallsBackOnlyOnEnvironment) {
  const auto records = ordered_records(20);
  const std::string path =
      write_spill("/tmp/bpsio_map_factory.bpstrace", records);
  const auto source = trace::open_trace_source(path, /*chunk_records=*/8);
  ASSERT_TRUE(source->status().ok());
  // On this platform mmap works, so the factory must return the mapped
  // source, not the ifstream fallback.
  EXPECT_NE(dynamic_cast<trace::MappedTraceSource*>(source.get()), nullptr);
  EXPECT_EQ(drain(*source), records);
  std::remove(path.c_str());
}

TEST(OpenTraceSource, MergedChildrenMatchIfstreamChildren) {
  // The drain/report merge must produce the identical record sequence
  // whether its children are mapped or streamed — including the (start,
  // end, child-index) tie-break.
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

  std::vector<std::unique_ptr<trace::RecordSource>> mapped_children;
  mapped_children.push_back(std::make_unique<trace::MappedTraceSource>(pa, 16));
  mapped_children.push_back(std::make_unique<trace::MappedTraceSource>(pb, 16));
  trace::MergedSource mapped_merge(std::move(mapped_children), keep);

  std::vector<std::unique_ptr<trace::RecordSource>> stream_children;
  stream_children.push_back(std::make_unique<trace::SpilledTraceSource>(pa, 16));
  stream_children.push_back(std::make_unique<trace::SpilledTraceSource>(pb, 16));
  trace::MergedSource stream_merge(std::move(stream_children), keep);

  EXPECT_EQ(drain(mapped_merge), drain(stream_merge));
  EXPECT_TRUE(mapped_merge.status().ok());
  EXPECT_TRUE(stream_merge.status().ok());
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

}  // namespace
}  // namespace bpsio
