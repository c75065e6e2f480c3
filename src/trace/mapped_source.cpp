#include "trace/mapped_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <type_traits>

namespace bpsio::trace {

// The zero-copy contract rests on the wire layout being a plain array of
// PODs behind a header that keeps the payload 8-aligned. Check all three at
// compile time; any change to IoRecord or TraceHeader that breaks them must
// be a conscious format revision, not a silent misalignment.
static_assert(std::is_trivially_copyable_v<IoRecord>,
              "mmap streaming reinterprets file bytes as IoRecord");
static_assert(sizeof(IoRecord) == 32, "paper wire format is 32-byte records");
static_assert(sizeof(TraceHeader) % alignof(IoRecord) == 0,
              "record payload must start aligned for in-place spans");

MappedTraceSource::MappedTraceSource(std::string path,
                                     std::size_t chunk_records)
    : path_(std::move(path)), chunk_(chunk_records ? chunk_records : 1) {
  // O_NONBLOCK changes nothing for a regular file; a FIFO with no writer
  // then opens at once and fails as a 0-byte file instead of blocking.
  const int fd = ::open(path_.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) {
    status_ = Status{Errc::not_found, "cannot open " + path_};
    return;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    status_ = Status{Errc::io_error, "cannot stat " + path_};
    ::close(fd);
    return;
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (file_size == 0) {
    // mmap of length 0 is EINVAL; the file is simply too short to hold a
    // header.
    status_ = Status{parse_trace_header(nullptr, 0).error()};
    ::close(fd);
    return;
  }
  map_ = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    status_ = Status{Errc::io_error, "cannot mmap " + path_};
    return;
  }
  map_len_ = file_size;
  ::madvise(map_, map_len_, MADV_SEQUENTIAL);

  const auto parsed =
      parse_trace_header(static_cast<const char*>(map_), map_len_);
  if (!parsed.ok()) {
    status_ = Status{parsed.error()};
    return;
  }
  header_ = *parsed;
  records_ = reinterpret_cast<const IoRecord*>(static_cast<const char*>(map_) +
                                               sizeof(TraceHeader));
  available_ = (map_len_ - sizeof(TraceHeader)) / sizeof(IoRecord);
  remaining_ = header_.record_count;
}

MappedTraceSource::~MappedTraceSource() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

std::span<const IoRecord> MappedTraceSource::next_chunk() {
  if (!status_.ok() || remaining_ == 0) return {};
  const auto take =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, chunk_));
  if (delivered_ + take > available_) {
    // A chunk that cannot be filled whole delivers nothing and fails the
    // source; "found" counts the complete records physically present.
    status_ = Status{Errc::io_error,
                     "trace truncated: header claims " +
                         std::to_string(header_.record_count) +
                         " records, found " + std::to_string(available_)};
    remaining_ = 0;
    return {};
  }
  // The previous chunk's span dies with this call: release its pages.
  release_before(delivered_);
  const std::span<const IoRecord> out{records_ + delivered_, take};
  // One branch-free pass over the chunk; the index is searched only when a
  // record breaks the rule.
  bool in_range = true;
  for (const IoRecord& r : out) in_range &= r.times_in_range();
  for (std::size_t i = 0; !in_range && i < take; ++i) {
    if (!out[i].times_in_range()) {
      // Like a truncated file: the chunk delivers nothing, the source fails.
      status_ = Status{Errc::invalid_argument,
                       path_ + ": record " + std::to_string(delivered_ + i) +
                           " has start " + std::to_string(out[i].start_ns) +
                           " and end " + std::to_string(out[i].end_ns) +
                           ", outside 0 <= start <= end"};
      remaining_ = 0;
      return {};
    }
  }
  delivered_ += take;
  remaining_ -= take;
  return out;
}

void MappedTraceSource::release_before(std::uint64_t index) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t byte =
      sizeof(TraceHeader) + static_cast<std::size_t>(index) * sizeof(IoRecord);
  const std::size_t upto = byte / page * page;
  if (upto <= released_) return;
  ::madvise(static_cast<char*>(map_) + released_, upto - released_,
            MADV_DONTNEED);
  released_ = upto;
}

std::optional<std::uint64_t> MappedTraceSource::size_hint() const {
  if (!status_.ok()) return std::nullopt;
  return std::min(header_.record_count, available_);
}

std::unique_ptr<RecordSource> open_trace_source(const std::string& path,
                                                std::size_t chunk_records) {
  return std::make_unique<MappedTraceSource>(path, chunk_records);
}

}  // namespace bpsio::trace
