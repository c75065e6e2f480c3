// mmap-backed trace streaming: the one reader of .bpstrace files.
//
// A .bpstrace file is a 24-byte header followed by raw 32-byte IoRecords,
// so every chunk is served as a span directly over the page cache: no
// read() syscalls, no scratch buffer, no per-chunk copy. load_binary()
// drains one into a vector, and
// open_trace_source() is the factory the tools and drains call.
//
// Lifetime contract (DESIGN.md §13), the same as every RecordSource's: a
// span returned by next_chunk() is valid until the next next_chunk() call on
// the same source. Consumers that keep records longer must copy them.
//
// Residency stays O(chunk): each next_chunk() maps the page-aligned window
// that holds the chunk it returns and unmaps the previous chunk's window,
// which the lifetime contract lets die with the call. Mapped pages count in
// the process's RSS, and the page cache may hold a file in 2 MiB folios: a
// mapping of the whole file maps a whole folio at its first fault, and
// dropping (MADV_DONTNEED) the pages behind the cursor would still leave
// about 2 MiB resident per file, 2 MiB x N for a merge over N files. A
// window maps only its own pages. The file stays open for the next window,
// one descriptor per source, with sequential access advised so that a cold
// file still reads ahead. A source that finds the process out of
// descriptors lifts the soft RLIMIT_NOFILE to the hard one and opens once
// more, so a merge reads as many files as the hard limit allows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/result.hpp"
#include "trace/io_record.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"

namespace bpsio::trace {

/// Streams a .bpstrace (v2) file as spans over a read-only file mapping.
/// A file that cannot be opened (Errc::not_found when it does not exist,
/// Errc::busy when the process is out of descriptors even at its hard
/// limit), stat'ed or mapped, a bad header, a
/// truncated payload, or a record outside 0 <= start <= end
/// (IoRecord::times_in_range; the error names the file and the record's
/// index) surfaces through status(); a chunk that cannot be filled whole or
/// holds such a record delivers nothing and fails the source, so a failed
/// source never yields a partial silent stream.
class MappedTraceSource final : public RecordSource {
 public:
  explicit MappedTraceSource(std::string path,
                             std::size_t chunk_records = kDefaultSourceChunk);
  ~MappedTraceSource() override;

  MappedTraceSource(const MappedTraceSource&) = delete;
  MappedTraceSource& operator=(const MappedTraceSource&) = delete;

  std::span<const IoRecord> next_chunk() override;
  /// The header's count, capped at the complete records the file holds.
  std::optional<std::uint64_t> size_hint() const override;
  Status status() const override { return status_; }

  /// Record count the header claims (0 when the header was rejected).
  std::uint64_t record_count() const { return header_.record_count; }
  const std::string& path() const { return path_; }

 private:
  /// Maps the window of whole pages holding file bytes [begin, end),
  /// unless the current window already does, and returns the address of
  /// byte `begin`; null after failing the source.
  const char* map_window(std::size_t begin, std::size_t end);
  void unmap_window();

  std::string path_;
  int fd_ = -1;
  std::size_t file_size_ = 0;
  void* window_ = nullptr;
  std::size_t window_offset_ = 0;  ///< file offset of the window's first byte
  std::size_t window_len_ = 0;
  TraceHeader header_{};
  std::uint64_t available_ = 0;  ///< complete records physically in the file
  std::uint64_t delivered_ = 0;
  std::uint64_t remaining_ = 0;  ///< header-claimed records still to yield
  std::size_t chunk_;
  Status status_;
};

/// Kept only for bpsbench/src/layers.cpp, which spells it; new code names
/// MappedTraceSource.
using SpilledTraceSource = MappedTraceSource;

/// Open a .bpstrace for streaming. Callers check status() before use.
std::unique_ptr<RecordSource> open_trace_source(
    const std::string& path, std::size_t chunk_records = kDefaultSourceChunk);

}  // namespace bpsio::trace
