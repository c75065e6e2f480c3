#include "trace/mapped_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
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

namespace {

/// Opens `path` for reading. Every open source holds its file's
/// descriptor, so a merge over more files than the soft RLIMIT_NOFILE
/// (often 1024) runs out: a process out of descriptors lifts its soft
/// limit to the hard one and tries once more.
int open_for_reading(const std::string& path) {
  // O_NONBLOCK changes nothing for a regular file; a FIFO with no writer
  // then opens at once and fails as a 0-byte file instead of blocking.
  constexpr int kFlags = O_RDONLY | O_NONBLOCK | O_CLOEXEC;
  const int fd = ::open(path.c_str(), kFlags);
  if (fd >= 0 || errno != EMFILE) return fd;
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0 ||
      limit.rlim_cur >= limit.rlim_max) {
    errno = EMFILE;
    return -1;
  }
  limit.rlim_cur = limit.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) {
    errno = EMFILE;
    return -1;
  }
  return ::open(path.c_str(), kFlags);
}

/// The failed open's errno as a status: a missing file is not_found, a
/// process or system out of descriptors is busy.
Status open_failure(const std::string& path, int err) {
  if (err == ENOENT || err == ENOTDIR) {
    return Status{Errc::not_found, "cannot open " + path};
  }
  if (err == EMFILE) {
    rlimit limit{};
    ::getrlimit(RLIMIT_NOFILE, &limit);
    return Status{Errc::busy, "cannot open " + path +
                                  ": too many open files (the limit is " +
                                  std::to_string(limit.rlim_cur) +
                                  " descriptors)"};
  }
  const Errc code = err == ENFILE ? Errc::busy : Errc::io_error;
  return Status{code, "cannot open " + path + ": " + std::strerror(err)};
}

}  // namespace

MappedTraceSource::MappedTraceSource(std::string path,
                                     std::size_t chunk_records)
    : path_(std::move(path)), chunk_(chunk_records ? chunk_records : 1) {
  fd_ = open_for_reading(path_);
  if (fd_ < 0) {
    status_ = open_failure(path_, errno);
    return;
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
    status_ = Status{Errc::io_error, "cannot stat " + path_};
    return;
  }
  file_size_ = static_cast<std::size_t>(st.st_size);
  if (file_size_ == 0) {
    // mmap of length 0 is EINVAL; the file is simply too short to hold a
    // header.
    status_ = Status{parse_trace_header(nullptr, 0).error()};
    return;
  }
  ::posix_fadvise(fd_, 0, 0, POSIX_FADV_SEQUENTIAL);
  const std::size_t header_end = std::min(file_size_, sizeof(TraceHeader));
  const char* header = map_window(0, header_end);
  if (header == nullptr) return;
  const auto parsed = parse_trace_header(header, header_end);
  if (!parsed.ok()) {
    status_ = Status{parsed.error()};
    return;
  }
  header_ = *parsed;
  available_ = (file_size_ - sizeof(TraceHeader)) / sizeof(IoRecord);
  remaining_ = header_.record_count;
}

MappedTraceSource::~MappedTraceSource() {
  unmap_window();
  if (fd_ >= 0) ::close(fd_);
}

void MappedTraceSource::unmap_window() {
  if (window_ != nullptr) ::munmap(window_, window_len_);
  window_ = nullptr;
  window_len_ = 0;
}

const char* MappedTraceSource::map_window(std::size_t begin, std::size_t end) {
  if (window_ == nullptr || begin < window_offset_ ||
      end > window_offset_ + window_len_) {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    unmap_window();
    const std::size_t offset = begin / page * page;
    // Whole pages, up to the end of the file: a later chunk inside them
    // reuses the window.
    const std::size_t len =
        std::min((end - offset + page - 1) / page * page, file_size_ - offset);
    void* mapped = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd_,
                          static_cast<off_t>(offset));
    if (mapped == MAP_FAILED) {
      status_ = Status{Errc::io_error, "cannot mmap " + path_};
      remaining_ = 0;
      return nullptr;
    }
    window_ = mapped;
    window_offset_ = offset;
    window_len_ = len;
    ::madvise(window_, window_len_, MADV_SEQUENTIAL);
  }
  return static_cast<const char*>(window_) + (begin - window_offset_);
}

std::span<const IoRecord> MappedTraceSource::next_chunk() {
  if (!status_.ok() || remaining_ == 0) {
    // The previous chunk's span dies with this call.
    unmap_window();
    return {};
  }
  const auto take =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, chunk_));
  if (delivered_ + take > available_) {
    // A chunk that cannot be filled whole delivers nothing and fails the
    // source; "found" counts the complete records physically present.
    unmap_window();
    status_ = Status{Errc::io_error,
                     "trace truncated: header claims " +
                         std::to_string(header_.record_count) +
                         " records, found " + std::to_string(available_)};
    remaining_ = 0;
    return {};
  }
  const std::size_t begin =
      sizeof(TraceHeader) +
      static_cast<std::size_t>(delivered_) * sizeof(IoRecord);
  const char* bytes = map_window(begin, begin + take * sizeof(IoRecord));
  if (bytes == nullptr) return {};
  const std::span<const IoRecord> out{
      reinterpret_cast<const IoRecord*>(bytes), take};
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

std::optional<std::uint64_t> MappedTraceSource::size_hint() const {
  if (!status_.ok()) return std::nullopt;
  return std::min(header_.record_count, available_);
}

std::unique_ptr<RecordSource> open_trace_source(const std::string& path,
                                                std::size_t chunk_records) {
  return std::make_unique<MappedTraceSource>(path, chunk_records);
}

}  // namespace bpsio::trace
