// mmap-backed trace streaming: the one reader of .bpstrace files.
//
// A .bpstrace file is a 24-byte header followed by raw 32-byte IoRecords,
// so the whole record payload is served as spans directly over the page
// cache: no read() syscalls past the first fault, no scratch buffer, no
// per-chunk copy. load_binary() drains one into a vector, and
// open_trace_source() is the factory the tools and drains call.
//
// Lifetime contract (DESIGN.md §13), the same as every RecordSource's: a
// span returned by next_chunk() is valid until the next next_chunk() call on
// the same source. Consumers that keep records longer must copy them.
//
// Residency stays O(chunk): each next_chunk() releases (MADV_DONTNEED) the
// whole pages before the chunk it returns. The mapping is read-only and
// private, so a released page holds no private data; touching it again
// re-faults the same bytes from the page cache. Without the release, every
// page read would stay mapped and count in the process's RSS until the
// source is destroyed: a merge over N files would peak at the size of the
// N files.
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
/// A file that cannot be opened, stat'ed or mapped, a bad header, a
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
  /// Release the whole pages before record `index`.
  void release_before(std::uint64_t index);

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::size_t released_ = 0;  ///< bytes at the mapping's start released
  const IoRecord* records_ = nullptr;
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
