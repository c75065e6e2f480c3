// The I/O access record — Step 1 of the paper's BPS measurement methodology.
//
// "We use one record to capture the information of each I/O access of a
//  process. Each record includes process ID, I/O size (blocks), I/O start
//  time, and I/O end time." (Section III.B)
//
// The paper sizes each record at 32 bytes ("even for 65535 I/O operations,
// all the records need about 3 megabytes"); IoRecord is laid out to match.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace bpsio::trace {

enum class IoOpKind : std::uint8_t {
  read = 0,
  write = 1,
};

enum IoRecordFlags : std::uint8_t {
  kIoOk = 0,
  /// The access failed. Failed accesses still count toward B: "all the I/O
  /// blocks issued from the application are counted, including all successful
  /// accesses, non-successful ones, and all concurrent ones."
  kIoFailed = 1u << 0,
  /// The access was serviced by a collective / list operation (MPI-IO).
  kIoCollective = 1u << 1,
  /// A synchronization access (fsync/fdatasync) captured from a real program:
  /// it occupies I/O time (its interval counts toward T) but moves zero
  /// application-required blocks, so blocks == 0 is valid for it.
  kIoSync = 1u << 2,
};

/// One application-level I/O access. POD, 32 bytes, trivially serializable.
struct IoRecord {
  std::uint32_t pid = 0;       ///< issuing process id
  IoOpKind op = IoOpKind::read;
  std::uint8_t flags = kIoOk;
  std::uint16_t reserved = 0;  ///< padding, kept zero for stable serialization
  std::uint64_t blocks = 0;    ///< I/O size in block units (app-required data)
  std::int64_t start_ns = 0;   ///< access start, ns since run start
  std::int64_t end_ns = 0;     ///< access end, ns since run start

  SimTime start() const { return SimTime(start_ns); }
  SimTime end() const { return SimTime(end_ns); }
  SimDuration response_time() const { return SimDuration(end_ns - start_ns); }
  bool failed() const { return (flags & kIoFailed) != 0; }
  bool sync() const { return (flags & kIoSync) != 0; }

  /// Validity: a record must have end >= start. Zero-duration records
  /// (end == start) are valid — real syscalls captured with a nanosecond
  /// clock can start and finish inside one tick.
  bool valid() const { return end_ns >= start_ns; }

  /// The time rule for records that enter from outside (frames, trace
  /// files): 0 <= start <= end. Every writer in the repo meets it — capture
  /// times are CLOCK_MONOTONIC and the simulator starts at 0 — and under it
  /// every duration and every distance between two records' times fits in
  /// int64, so no metric overflows on any one record. FrameDecoder and
  /// MappedTraceSource refuse a record that breaks it.
  bool times_in_range() const { return start_ns >= 0 && end_ns >= start_ns; }

  friend bool operator==(const IoRecord&, const IoRecord&) = default;

  std::string to_string() const;
};

static_assert(sizeof(IoRecord) == 32, "paper specifies 32-byte records");

/// Convenience constructor used heavily in tests and examples.
IoRecord make_record(std::uint32_t pid, std::uint64_t blocks, SimTime start,
                     SimTime end, IoOpKind op = IoOpKind::read,
                     std::uint8_t flags = kIoOk);

}  // namespace bpsio::trace
