// Instrumented POSIX-like I/O library — where BPS records are captured.
//
// "We get this information in the I/O middleware layer for MPI-IO
//  applications, or I/O function libraries for ordinary POSIX interface
//  applications, to avoid the modification of applications." (Sec. III.B)
//
// Every application-visible read()/write() appends one IoRecord (pid,
// blocks, start, end) to this process's TraceBuffer. The recorded size is
// the application-REQUIRED size; whatever extra the lower layers move
// (readahead, sieving holes, prefetch) never appears in B.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fs/file_api.hpp"
#include "mio/client_node.hpp"
#include "mio/prefetcher.hpp"
#include "trace/trace_buffer.hpp"

namespace bpsio::mio {

class IoClient {
 public:
  /// `node` is the process's compute node; `backend` the storage stack
  /// (local FS or PFS client) it reaches through the VFS.
  IoClient(ClientNode& node, fs::FileApi& backend, std::uint32_t pid,
           Bytes block_size = kDefaultBlockSize);

  std::uint32_t pid() const { return pid_; }
  Bytes block_size() const { return block_size_; }
  ClientNode& node() { return node_; }
  fs::FileApi& backend() { return backend_; }
  trace::TraceBuffer& trace() { return trace_; }
  const trace::TraceBuffer& trace() const { return trace_; }

  /// Enable middleware-level sequential prefetching (off by default).
  /// Prefetch reads move data without being application accesses — the
  /// second optimization the paper names as distorting bandwidth.
  void enable_prefetch(PrefetchConfig config);
  const Prefetcher* prefetcher() const { return prefetch_.get(); }

  // Namespace operations (no simulated cost; the paper's workloads open
  // their files once, outside the timed region).
  Result<fs::FileHandle> create(const std::string& path, Bytes size);
  Result<fs::FileHandle> open(const std::string& path);
  Status close(fs::FileHandle h);

  /// Instrumented read: per-op CPU overhead, backend I/O, copy-out, and one
  /// IoRecord covering the whole application-visible interval.
  void read(fs::FileHandle h, Bytes offset, Bytes size, fs::IoDoneFn done);
  void write(fs::FileHandle h, Bytes offset, Bytes size, fs::IoDoneFn done);
  void flush(fs::FlushDoneFn done);

  /// Issue a backend read *without* recording it (used by the prefetcher —
  /// prefetch traffic is not an application access).
  void backend_read_unrecorded(fs::FileHandle h, Bytes offset, Bytes size,
                               fs::IoDoneFn done);

 private:
  void finish_access(SimTime start, Bytes requested, trace::IoOpKind op,
                     fs::IoOutcome outcome, fs::IoDoneFn done);

  ClientNode& node_;
  fs::FileApi& backend_;
  std::uint32_t pid_;
  Bytes block_size_;
  trace::TraceBuffer trace_;
  std::unique_ptr<Prefetcher> prefetch_;
};

}  // namespace bpsio::mio
