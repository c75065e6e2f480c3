// Environment-driven configuration of the real-I/O capture library.
//
// The paper's capture point lives "in the I/O function library, with no
// application modification" (Section III.B) — which means the interposer has
// no argv, no config file path, nothing but the environment. Everything the
// LD_PRELOAD library does is controlled by BPSIO_CAPTURE_* variables:
//
//   BPSIO_CAPTURE_DIR             output directory for per-process traces.
//                                 Capture is enabled iff this or
//                                 BPSIO_CAPTURE_SOCKET is set and non-empty —
//                                 preloading the library without either is a
//                                 pure passthrough.
//   BPSIO_CAPTURE_SOCKET          path of a bpsio_agentd Unix-domain socket.
//                                 When set, buffers ship to the live daemon
//                                 as length-prefixed frames (trace/frame.hpp)
//                                 instead of spilling to files. If the daemon
//                                 is unreachable (or dies mid-run), capture
//                                 falls back to file spill in
//                                 BPSIO_CAPTURE_DIR — and when no DIR is set
//                                 either, records are dropped with one
//                                 warning. The never-abort policy holds in
//                                 every case.
//   BPSIO_CAPTURE_BLOCK_SIZE      block unit for B (default 512, the paper's
//                                 unit; accepts 4K-style suffixes). Records
//                                 store ceil(requested_bytes / block_size),
//                                 counting requested blocks even on short or
//                                 failed I/O.
//   BPSIO_CAPTURE_BUFFER_RECORDS  per-thread buffer capacity (default 4096;
//                                 32 bytes/record). Bounds both resident
//                                 memory and the records a thread can lose
//                                 at a hard exit. Clamped, with a warning,
//                                 to trace::kMaxFrameRecords (1,048,576 =
//                                 32 MiB per thread): one flushed buffer is
//                                 one socket frame, and the daemons reject
//                                 larger frames.
//   BPSIO_CAPTURE_INCLUDE_FDS     comma-separated fd allowlist; when set,
//                                 only these fds are recorded.
//   BPSIO_CAPTURE_EXCLUDE_FDS     comma-separated fd denylist (default
//                                 "0,1,2": terminal chatter is not I/O-system
//                                 load). Ignored when the allowlist is set.
//   BPSIO_CAPTURE_ALL_FDS        "1" to record I/O on fds the interposer
//                                 never saw open()ed (inherited, dup'ed,
//                                 sockets). Default off: only fds opened
//                                 through the interposed open/openat family
//                                 are recorded, which is also what keeps the
//                                 trace file's own writes out of the trace.
//   BPSIO_CAPTURE_FSYNC          "1" to record fsync/fdatasync as
//                                 zero-block kIoSync records (they occupy
//                                 I/O time but move no application blocks).
//
// Parsing is deliberately forgiving: a malformed value falls back to its
// default and surfaces as a warning string — an LD_PRELOAD library must
// never abort someone else's process over a typo.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace bpsio::capture {

struct CaptureConfig {
  bool enabled = false;
  std::string dir;
  std::string socket_path;  ///< live-shipping target; empty = file spill only
  Bytes block_size = kDefaultBlockSize;
  std::size_t buffer_records = 4096;
  bool capture_all_fds = false;
  bool record_fsync = false;
  std::vector<int> include_fds;       ///< empty = no allowlist
  std::vector<int> exclude_fds{0, 1, 2};
};

/// Environment accessor, injectable for tests (production passes ::getenv
/// wrapped to const char*). Returns nullptr for unset variables.
using EnvLookup = std::function<const char*(const char*)>;

/// Parse BPSIO_CAPTURE_* from `env`. Malformed values keep their defaults
/// and append a human-readable note to `warnings` (when non-null).
CaptureConfig parse_capture_config(const EnvLookup& env,
                                   std::vector<std::string>* warnings = nullptr);

/// fd filter: allowlist wins when present, otherwise the denylist applies.
/// Pure fd-number policy — the "was it opened through the interposer" state
/// check lives in the interposer, not here.
bool fd_passes_filters(const CaptureConfig& config, int fd);

/// Trace path: <dir>/bpsio-<pid>-<tid>-<stamp>.bpstrace. One file per
/// capturing thread: a thread's records are start-ordered by construction
/// (call i+1 starts after call i returned), so every spilled file satisfies
/// the streaming pipeline's ordering contract and bpsio_report can k-way
/// merge them with MergedSource — no sort, no materialization. For a
/// single-threaded process this is exactly one file per process. The stamp
/// (realtime ns at first flush) keeps pid/tid reuse across a long job from
/// clobbering an earlier trace.
std::string capture_trace_path(const CaptureConfig& config, std::uint32_t pid,
                               std::uint32_t tid, std::int64_t stamp_ns);

/// ceil(bytes / block_size) in the configured unit — the paper's B
/// contribution of one access, computed from the *requested* byte count.
/// Inline: the interposer computes it on every recorded call.
inline std::uint64_t requested_blocks(const CaptureConfig& config,
                                      std::uint64_t bytes) {
  return bytes_to_blocks(bytes, config.block_size);
}

}  // namespace bpsio::capture
