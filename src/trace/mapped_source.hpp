// mmap-backed trace streaming — the zero-copy end of the source hierarchy.
//
// A .bpstrace file is a 24-byte header followed by raw 32-byte IoRecords,
// so on platforms with mmap the whole record payload can be served as spans
// directly over the page cache: no read() syscalls past the first fault, no
// scratch buffer, no per-chunk copy. MappedTraceSource is the drop-in
// mmap twin of SpilledTraceSource — same header validation, same truncation
// error text, same chunk granularity — and open_trace_source() picks
// between them so callers never care which one they got.
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
/// Behavior is bit-identical to SpilledTraceSource on every input: a bad
/// header or truncated payload surfaces through status() with the same
/// message, and a chunk that cannot be filled whole delivers nothing.
class MappedTraceSource final : public RecordSource {
 public:
  explicit MappedTraceSource(std::string path,
                             std::size_t chunk_records = kDefaultSourceChunk);
  ~MappedTraceSource() override;

  MappedTraceSource(const MappedTraceSource&) = delete;
  MappedTraceSource& operator=(const MappedTraceSource&) = delete;

  std::span<const IoRecord> next_chunk() override;
  std::optional<std::uint64_t> size_hint() const override;
  Status status() const override { return status_; }

  /// Record count the header claims (0 when the header was rejected).
  std::uint64_t record_count() const { return header_.record_count; }
  const std::string& path() const { return path_; }

  /// True when construction failed because the ENVIRONMENT refused
  /// (open/fstat/mmap error or no mmap on this platform), as opposed to the
  /// file content being malformed. open_trace_source() falls back to the
  /// ifstream source only in that case — a corrupt file must fail the same
  /// way through either source, not get a second chance.
  bool environment_failed() const { return env_failed_; }

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
  bool env_failed_ = false;
};

/// Open a .bpstrace for streaming: the mmap source when the platform and
/// environment allow it, SpilledTraceSource otherwise. Format errors
/// (bad header, truncation) surface identically through either result, so
/// callers check status() exactly as before.
std::unique_ptr<RecordSource> open_trace_source(
    const std::string& path, std::size_t chunk_records = kDefaultSourceChunk);

}  // namespace bpsio::trace
