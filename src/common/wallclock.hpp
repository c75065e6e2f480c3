// Real (wall) clock readings for the capture subsystem.
//
// The simulator keeps its own deterministic SimTime; nothing in the analysis
// or simulation layers may read a machine clock (enforced by the bpsio-lint
// `raw-random` rule). The capture subsystem is the one place where real
// timestamps are the *point*: the paper's methodology stamps every I/O access
// "in the I/O function library" with actual start/end times (Section III.B).
// These wrappers are the only sanctioned machine-clock entry points; they
// isolate the clock_gettime plumbing so interposer code never touches raw
// syscalls for time.
//
// Both functions are async-signal-safe and allocation-free (clock_gettime is
// a vDSO call on Linux), which the LD_PRELOAD interposer depends on: it must
// be able to stamp I/O issued from malloc-hostile contexts. Where the kernel
// keeps time with the TSC, the interposer no longer reads this clock on
// every call: it stamps TSC ticks and reads monotonic_ns() only for the
// anchors that map them to ns (src/capture/tick_segment.hpp). Elsewhere it
// still reads the clock twice per recorded call, so the functions stay
// inline: a call layer around the vDSO read is a measurable share of that
// cost.
#pragma once

#include <cstdint>
#include <ctime>

namespace bpsio {

namespace wallclock_detail {

inline std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace wallclock_detail

/// CLOCK_MONOTONIC in nanoseconds: never decreases, unaffected by clock
/// adjustments, shared by every process on the machine — so per-process
/// capture traces can be merged with TimeAlignment::keep and yield a
/// meaningful global overlapped time T. Returns 0 only if the clock is
/// unavailable (no realistic Linux target).
inline std::int64_t monotonic_ns() {
  return wallclock_detail::read_clock(CLOCK_MONOTONIC);
}

/// CLOCK_REALTIME in nanoseconds since the Unix epoch. Used for unique
/// trace-file naming (pid reuse across a long job must not clobber an
/// earlier process's trace), never for record timestamps.
inline std::int64_t realtime_ns() {
  return wallclock_detail::read_clock(CLOCK_REALTIME);
}

}  // namespace bpsio
