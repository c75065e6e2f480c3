// Negative-path coverage for trace persistence and validation: corrupt or
// foreign inputs must be rejected with a descriptive error, never silently
// reinterpreted. B and T are only trustworthy if malformed traces cannot
// reach the metric pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "metrics/pipeline.hpp"
#include "trace/io_record.hpp"
#include "trace/mapped_source.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "trace/validate.hpp"

namespace {

// The largest single allocation since the last reset, for the reserve check
// of TraceNegative.AbsurdRecordCountReservesOnlyWhatTheFileHolds.
std::atomic<std::size_t> g_largest_alloc{0};

void* tracked_alloc(std::size_t size) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_alloc.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bpsio::trace {
namespace {

std::vector<IoRecord> sample_records(std::size_t n) {
  std::vector<IoRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(make_record(static_cast<std::uint32_t>(1 + i % 3), 8 + i,
                                  SimTime(static_cast<std::int64_t>(i) * 100),
                                  SimTime(static_cast<std::int64_t>(i) * 100 +
                                          50),
                                  IoOpKind::read, kIoOk));
  }
  return records;
}

/// The bytes of a valid file holding `records`.
std::string serialized(const std::vector<IoRecord>& records) {
  const std::string path = ::testing::TempDir() + "/bpsio_neg_source.bpstrace";
  EXPECT_TRUE(save_binary(path, records).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// load_binary() over a file holding exactly `bytes`.
Result<std::vector<IoRecord>> read_bytes(const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/bpsio_neg_bytes.bpstrace";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = load_binary(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(TraceNegative, RoundTripStillWorks) {
  const auto records = sample_records(5);
  const auto loaded = read_bytes(serialized(records));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), records.size());
  EXPECT_EQ(std::memcmp(loaded->data(), records.data(),
                        records.size() * sizeof(IoRecord)),
            0);
}

TEST(TraceNegative, TruncatedHeaderIsRejected) {
  const std::string bytes = serialized(sample_records(2));
  for (std::size_t keep : {std::size_t{0}, std::size_t{4},
                           sizeof(TraceHeader) - 1}) {
    const auto result = read_bytes(bytes.substr(0, keep));
    ASSERT_FALSE(result.ok()) << "kept " << keep << " bytes";
    EXPECT_NE(result.error().message.find("truncated trace header"),
              std::string::npos)
        << result.error().message;
  }
}

TEST(TraceNegative, BadMagicIsRejected) {
  std::string bytes = serialized(sample_records(1));
  bytes[0] ^= 0xff;
  const auto result = read_bytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("bad trace magic"), std::string::npos);
}

TEST(TraceNegative, UnsupportedVersionIsRejectedByNumber) {
  std::string bytes = serialized(sample_records(1));
  TraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  header.version = 77;
  std::memcpy(bytes.data(), &header, sizeof header);
  const auto result = read_bytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("unsupported trace version 77"),
            std::string::npos)
      << result.error().message;
}

TEST(TraceNegative, NonPaperRecordSizeIsRejected) {
  std::string bytes = serialized(sample_records(1));
  TraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  header.record_size = 48;
  std::memcpy(bytes.data(), &header, sizeof header);
  const auto result = read_bytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("non-32-byte record size 48"),
            std::string::npos)
      << result.error().message;
}

TEST(TraceNegative, RecordCountMismatchReportsClaimedAndFound) {
  const auto records = sample_records(4);
  std::string bytes = serialized(records);
  // Drop the last record's bytes: the header still claims 4.
  bytes.resize(bytes.size() - sizeof(IoRecord));
  const auto result = read_bytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("header claims 4 records, found 3"),
            std::string::npos)
      << result.error().message;
}

TEST(TraceNegative, AbsurdRecordCountFailsCleanlyWithoutHugeAllocation) {
  // A corrupt header claiming ~500 billion records must produce a clean
  // truncation error, not a ~16 TiB vector allocation.
  std::string bytes = serialized(sample_records(2));
  TraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  header.record_count = 1ULL << 39;
  std::memcpy(bytes.data(), &header, sizeof header);
  const auto result = read_bytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("trace truncated"), std::string::npos);
  EXPECT_NE(result.error().message.find("found 2"), std::string::npos)
      << result.error().message;
}

TEST(TraceNegative, AbsurdRecordCountReservesOnlyWhatTheFileHolds) {
  // The file holds 2 records (64 bytes). Reserving for the claimed 2^39
  // would ask for 16 TiB; a fixed read-ahead reservation would still ask
  // for megabytes. Every allocation load_binary makes stays small.
  std::string bytes = serialized(sample_records(2));
  TraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  header.record_count = 1ULL << 39;
  std::memcpy(bytes.data(), &header, sizeof header);
  const std::string path = ::testing::TempDir() + "/bpsio_neg_absurd.bpstrace";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  g_largest_alloc.store(0);
  const auto loaded = load_binary(path);
  const std::size_t largest = g_largest_alloc.load();
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_LT(largest, std::size_t{4096}) << "largest allocation " << largest;
}

TEST(TraceNegative, SpillWriterEmitsTheSharedHeaderFormat) {
  const std::string path = ::testing::TempDir() + "/spill_negative.bpstrace";
  const auto records = sample_records(3);
  {
    SpillWriter writer(path, /*batch_records=*/2);
    for (const auto& r : records) writer.append(r);
    ASSERT_TRUE(writer.close().ok());
  }
  const auto loaded = load_binary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded->size(), records.size());
  EXPECT_EQ(std::memcmp(loaded->data(), records.data(),
                        records.size() * sizeof(IoRecord)),
            0);
}

TEST(TraceNegative, ValidateFlagsEndBeforeStart) {
  auto records = sample_records(3);
  records[1].end_ns = records[1].start_ns - 10;
  const auto report = validate(records);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].index, 1u);
  EXPECT_EQ(report.issues[0].what, "end before start");
  EXPECT_NE(report.to_string().find("end before start"), std::string::npos);
}

TEST(TraceNegative, ValidateFlagsNegativeStartAndZeroBlocks) {
  auto records = sample_records(2);
  records[0].start_ns = -5;
  records[1].blocks = 0;  // successful access claiming no data moved
  const auto report = validate(records);
  EXPECT_EQ(report.issues.size(), 2u);
  EXPECT_EQ(report.issues[0].what, "negative start time");
  EXPECT_EQ(report.issues[1].what, "successful access with zero blocks");
}

TEST(TraceNegative, HeaderOnlyTraceReadsAsEmpty) {
  // A traced process that performed no captured I/O (or was filtered down
  // to nothing) leaves a header-only .bpstrace — a valid, empty trace, not
  // a corruption. bpsio_report on such a capture must report B=0, T=0.
  const std::string path = "/tmp/bpsio_neg_empty.bpstrace";
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.close().ok());
    EXPECT_EQ(writer.records_written(), 0u);
  }

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), sizeof(TraceHeader));
  const auto header = parse_trace_header(bytes.data(), bytes.size());
  ASSERT_TRUE(header.ok()) << header.error().to_string();
  EXPECT_EQ(header->record_count, 0u);
  EXPECT_EQ(header->record_size, sizeof(IoRecord));

  MappedTraceSource source(path);
  EXPECT_TRUE(source.status().ok());
  EXPECT_EQ(source.record_count(), 0u);
  EXPECT_TRUE(source.next_chunk().empty());
  EXPECT_TRUE(source.status().ok());  // exhausted, not failed
  std::remove(path.c_str());
}

TEST(TraceNegative, EmptyTraceMeasuresZeroBlocksZeroTime) {
  const std::string path = "/tmp/bpsio_neg_empty_measure.bpstrace";
  {
    SpillWriter writer(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.close().ok());
  }
  MappedTraceSource source(path);
  const auto sample =
      metrics::measure_stream(source, /*moved_bytes=*/0, SimDuration(0));
  ASSERT_TRUE(sample.ok()) << sample.error().to_string();
  EXPECT_EQ(sample->app_blocks, 0u);   // B = 0
  EXPECT_EQ(sample->access_count, 0u);
  EXPECT_EQ(sample->io_time_s, 0.0);   // T = 0
  EXPECT_EQ(sample->bps, 0.0);
  std::remove(path.c_str());
}

TEST(TraceNegative, CheckpointedTraceIsReadableWithoutClose) {
  // The capture library checkpoints after every spill precisely so a
  // process that dies without running atexit still leaves a usable trace.
  const std::string path = "/tmp/bpsio_neg_checkpoint.bpstrace";
  auto records = sample_records(5);
  {
    SpillWriter writer(path, /*batch_records=*/8);
    for (const IoRecord& r : records) writer.append(r);
    ASSERT_TRUE(writer.checkpoint().ok());
    // No close(): simulate a hard exit. The destructor's close() is what a
    // clean exit would do, so read the file back *before* destroying...
    const auto loaded = load_binary(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
    EXPECT_EQ(*loaded, records);
    // ...and checkpoint() must leave the writer appendable.
    writer.append(records[0]);
    ASSERT_TRUE(writer.close().ok());
    EXPECT_EQ(writer.records_written(), 6u);
  }
  const auto final_load = load_binary(path);
  ASSERT_TRUE(final_load.ok());
  EXPECT_EQ(final_load->size(), 6u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Pinned failure texts. Every way of reading a .bpstrace file — the loader,
// the mapped source and the factory — reports each corruption with the same
// code and the same message, pinned here verbatim.
// ---------------------------------------------------------------------------

std::string with_header(std::string bytes, void (*edit)(TraceHeader&)) {
  TraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  edit(header);
  std::memcpy(bytes.data(), &header, sizeof header);
  return bytes;
}

Error drain_failure(RecordSource& source) {
  while (!source.next_chunk().empty()) {
  }
  EXPECT_FALSE(source.status().ok());
  return source.status().ok() ? Error{} : source.status().error();
}

struct FailurePin {
  const char* name;
  std::optional<std::string> bytes;  ///< nullopt: the file does not exist
  Errc code;
  std::string message;  ///< "{path}" stands for the file's path
};

std::vector<FailurePin> failure_pins() {
  const std::string two = serialized(sample_records(2));
  const std::string four = serialized(sample_records(4));
  return {
      {"missing", std::nullopt, Errc::not_found, "cannot open {path}"},
      {"header_0", std::string(), Errc::invalid_argument,
       "truncated trace header (0 of 24 bytes)"},
      {"header_4", two.substr(0, 4), Errc::invalid_argument,
       "truncated trace header (4 of 24 bytes)"},
      {"header_23", two.substr(0, 23), Errc::invalid_argument,
       "truncated trace header (23 of 24 bytes)"},
      {"bad_magic", with_header(two, [](TraceHeader& h) { h.magic ^= 0xff; }),
       Errc::invalid_argument, "bad trace magic"},
      {"version_77", with_header(two, [](TraceHeader& h) { h.version = 77; }),
       Errc::unsupported, "unsupported trace version 77 (expected 2)"},
      {"record_size_48",
       with_header(two, [](TraceHeader& h) { h.record_size = 48; }),
       Errc::unsupported,
       "non-32-byte record size 48 (paper-format records are 32 bytes)"},
      {"short_by_one_and_a_half",
       four.substr(0, four.size() - sizeof(IoRecord) * 3 / 2), Errc::io_error,
       "trace truncated: header claims 4 records, found 2"},
      {"claims_2_pow_39",
       with_header(two, [](TraceHeader& h) { h.record_count = 1ULL << 39; }),
       Errc::io_error,
       "trace truncated: header claims 549755813888 records, found 2"},
  };
}

TEST(TraceFailurePins, EveryReaderReportsTheSameCodeAndText) {
  for (const FailurePin& pin : failure_pins()) {
    SCOPED_TRACE(pin.name);
    const std::string path =
        ::testing::TempDir() + "/bpsio_pin_" + pin.name + ".bpstrace";
    std::remove(path.c_str());
    if (pin.bytes) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(pin.bytes->data(),
                static_cast<std::streamsize>(pin.bytes->size()));
    }
    std::string message = pin.message;
    if (const auto at = message.find("{path}"); at != std::string::npos) {
      message.replace(at, 6, path);
    }

    const auto loaded = load_binary(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, pin.code);
    EXPECT_EQ(loaded.error().message, message);

    for (const std::size_t chunk : {std::size_t{1}, kDefaultSourceChunk}) {
      MappedTraceSource mapped(path, chunk);
      const Error from_mapped = drain_failure(mapped);
      EXPECT_EQ(from_mapped.code, pin.code) << "chunk " << chunk;
      EXPECT_EQ(from_mapped.message, message) << "chunk " << chunk;

      const auto opened = open_trace_source(path, chunk);
      const Error from_factory = drain_failure(*opened);
      EXPECT_EQ(from_factory.code, pin.code) << "chunk " << chunk;
      EXPECT_EQ(from_factory.message, message) << "chunk " << chunk;
    }
    std::remove(path.c_str());
  }
}

TEST(TraceFailurePins, ADirectoryFailsAtTheMapping) {
  // open() and fstat() accept a directory; mmap() refuses it. A directory
  // with an entry has a nonzero size on common file systems, so the
  // refusal, not the empty-file check, is what reports it.
  const std::string dir = ::testing::TempDir() + "/bpsio_pin_dir";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/entry").put('x');
  const auto loaded = load_binary(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, Errc::io_error);
  EXPECT_EQ(loaded.error().message, "cannot mmap " + dir);
  const auto opened = open_trace_source(dir);
  EXPECT_EQ(opened->status().error().message, "cannot mmap " + dir);
  EXPECT_TRUE(opened->next_chunk().empty());
  std::filesystem::remove_all(dir);
}

TEST(TraceNegative, ValidatePerPidMonotoneOrder) {
  std::vector<IoRecord> records;
  records.push_back(make_record(1, 4, SimTime(100), SimTime(150),
                                IoOpKind::read, kIoOk));
  records.push_back(make_record(1, 4, SimTime(50), SimTime(90),
                                IoOpKind::read, kIoOk));
  EXPECT_TRUE(validate(records, /*expect_per_pid_monotone=*/false).ok());
  const auto report = validate(records, /*expect_per_pid_monotone=*/true);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].what, "per-pid start order violated");
}

}  // namespace
}  // namespace bpsio::trace
