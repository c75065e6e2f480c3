// Per-thread record transport: live socket shipping with automatic file
// spill fallback — the transport abstraction behind the interposer's flush
// path.
//
// Each capturing thread owns exactly one RecordShipper (no locks, no shared
// state beyond process-wide warn-once flags). The backend is decided at the
// first flush:
//
//   BPSIO_CAPTURE_SOCKET set  -> connect to the bpsio_agentd Unix socket and
//                                ship each buffer as one length-prefixed
//                                frame (trace/frame.hpp).
//   socket unreachable/lost   -> fall back to a per-thread .bpstrace spill
//                                file in BPSIO_CAPTURE_DIR (one stderr
//                                warning per process). The buffer whose send
//                                failed is re-shipped to the spill file: the
//                                daemon only counts fully-received frames,
//                                so a failed send means "not delivered" —
//                                no record is lost or double-counted.
//   no socket configured      -> spill directly (the PR-4 path).
//   neither available         -> records drop with one warning; the host
//                                process is never aborted (ground rule of
//                                src/capture/interpose.cpp).
//
// This code runs inside other people's processes under the interposer's
// reentrancy guard: it must never throw, never exit, and its own socket and
// file I/O must stay out of the trace (the guard handles that; the fds used
// here are additionally never marked as tracked application fds).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "capture/capture_config.hpp"
#include "trace/io_record.hpp"

namespace bpsio::trace {
class SpillWriter;  // spill_writer.hpp
}

namespace bpsio::capture {

/// One stderr line per process per failure class: an LD_PRELOAD library
/// degrades quietly, but says why exactly once. `flag` is the class's
/// process-wide warned bit.
void warn_once(std::atomic<bool>& flag, const char* what);

class RecordShipper {
 public:
  enum class Backend {
    unopened,  ///< no flush yet; transport chosen lazily
    socket,    ///< live frames to bpsio_agentd
    spill,     ///< per-thread .bpstrace file
    dead,      ///< no transport available; records drop
  };

  /// `config` must outlive the shipper (the interposer's runtime config is
  /// immutable after init). pid/tid name the spill file if one is needed.
  RecordShipper(const CaptureConfig& config, std::uint32_t pid,
                std::uint32_t tid);
  ~RecordShipper();

  RecordShipper(const RecordShipper&) = delete;
  RecordShipper& operator=(const RecordShipper&) = delete;

  /// Ship one flushed buffer. Returns false once the shipper is dead (no
  /// transport left) — the caller should stop buffering.
  bool ship(std::span<const trace::IoRecord> records);

  /// Flush/close the active transport (socket gets an orderly shutdown so
  /// the daemon sees EOF; spill writer checkpoints and closes). Idempotent.
  void close();

  /// Fork child: drop inherited transports without closing them on the
  /// parent's behalf. The child's socket fd reference is closed (the
  /// parent's connection is unaffected); an inherited spill writer is
  /// abandoned un-closed because its file offset belongs to the parent.
  void abandon_after_fork();

  Backend backend() const { return backend_; }

 private:
  bool ensure_backend();
  bool try_connect();
  bool open_spill();
  bool spill(std::span<const trace::IoRecord> records);
  bool send_frame(std::span<const trace::IoRecord> records);
  void die(const char* what);

  const CaptureConfig* config_;
  std::uint32_t pid_;
  std::uint32_t tid_;
  Backend backend_ = Backend::unopened;
  int socket_fd_ = -1;
  trace::SpillWriter* writer_ = nullptr;
  std::vector<char> frame_buf_;
};

}  // namespace bpsio::capture
