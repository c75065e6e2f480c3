// Asynchronous file API implemented by both the local file system and the
// parallel-file-system client, so the middleware layer (bpsio::mio) is
// agnostic to which storage stack sits underneath.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "sim/callback.hpp"

namespace bpsio::fs {

struct FileHandle {
  std::uint32_t id = 0;
  friend bool operator==(FileHandle, FileHandle) = default;
};

/// Outcome of an async read/write: `bytes` actually transferred
/// (0 on failure).
struct IoOutcome {
  bool ok = true;
  Bytes bytes = 0;
};

using IoDoneFn = sim::Callback<void(IoOutcome)>;
using FlushDoneFn = sim::Callback<void()>;

class FileApi {
 public:
  virtual ~FileApi() = default;

  /// Create a file and allocate `initial_size` bytes for it. The simulated
  /// file has no contents, only a size and a layout.
  virtual Result<FileHandle> create(const std::string& path,
                                    Bytes initial_size) = 0;
  virtual Result<FileHandle> open(const std::string& path) = 0;
  virtual Result<Bytes> size_of(FileHandle h) const = 0;
  virtual Status close(FileHandle h) = 0;
  virtual Status remove(const std::string& path) = 0;

  /// Async read/write of [offset, offset+size). Reads past EOF are clipped
  /// (outcome.bytes reports the transferred amount, like POSIX read()).
  virtual void read(FileHandle h, Bytes offset, Bytes size, IoDoneFn done) = 0;
  virtual void write(FileHandle h, Bytes offset, Bytes size, IoDoneFn done) = 0;

  /// Write back dirty cached data for the whole system.
  virtual void flush(FlushDoneFn done) = 0;
  /// Discard clean cached data and reset transient state. The paper flushes
  /// system caches before every run; experiment harnesses call this.
  virtual void drop_caches() = 0;

  /// Total bytes this layer has moved to/from the layer below (device or
  /// network). This is the "data moved into file systems or storage
  /// systems" that the bandwidth metric measures — it includes readahead,
  /// sieving holes, and prefetch, unlike the application-required bytes.
  virtual Bytes bytes_moved() const = 0;
  /// Reset the moved-bytes counter (between experiment repetitions).
  virtual void reset_counters() = 0;

  virtual std::string describe() const = 0;
};

}  // namespace bpsio::fs
