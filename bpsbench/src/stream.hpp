// The one seeded, zoo-derived record stream every bpsbench workload and
// layer replay consumes.
//
// Record sizes, op kinds and pids come from the nine zoo scenario plans
// (workload::zoo::build_plan at scale 1 with the run's seed), so the mix of
// small and large accesses is a real-application mix. Times are synthetic
// and frame-structured: a lane emits frames of F records covering one time
// window [t, t + W); starts are sorted uniform draws inside the window,
// durations span 1-8 mean gaps (so intervals overlap), ends are clipped to
// the window, and one record ends exactly at t + W. That makes every
// lane start-ordered (the framing contract), lets a frame be stamped at its
// due time, and keeps the shape independent of the rate it is replayed at.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "trace/io_record.hpp"

namespace bpsbench {

/// One zoo process's I/O program: a cyclic list of (kind, blocks) ops.
struct ProcessOps {
  std::uint32_t pid = 0;
  std::vector<bpsio::trace::IoOpKind> kind;
  std::vector<std::uint64_t> blocks;
};

/// Every I/O-issuing process of the nine zoo scenarios, pids 1000, 1001, ...
std::vector<ProcessOps> zoo_mix(std::uint64_t seed);

/// A start-ordered record generator over a subset of the mix's processes.
class Lane {
 public:
  Lane(std::vector<ProcessOps> procs, std::uint64_t seed);

  /// Append `count` (start, end)-ordered records covering
  /// [start_ns, start_ns + window_ns] to `out`; the latest end is exactly
  /// start_ns + window_ns, the frame's due time.
  void frame(std::int64_t start_ns, std::int64_t window_ns, std::size_t count,
             std::vector<bpsio::trace::IoRecord>& out);

 private:
  std::vector<ProcessOps> procs_;
  std::vector<std::size_t> cursor_;
  std::mt19937_64 rng_;
  std::vector<std::int64_t> offsets_;
};

/// Split the mix round-robin over `lanes` lanes (lane l gets processes
/// l, l + lanes, ...); with `one_pid` each lane keeps only its first process
/// (a per-thread trace file belongs to one process).
std::vector<Lane> make_lanes(std::uint64_t seed, std::size_t lanes,
                             bool one_pid);

/// Record stamp spacing of the closed-loop stream: ~4M records/s, just
/// above what the live stack sustains, so stamps track wall time.
inline constexpr std::int64_t kClosedLoopGapNs = 250;

/// The closed-loop (saturation) input of live_fanin: frames of
/// `frame_records` per lane whose stamps advance by `gap_ns` per record
/// across all lanes. Frames cycle through 32 templates per lane drawn up
/// front and shifted in time, so producing one costs a copy, not a draw.
class ClosedLoopStream {
 public:
  ClosedLoopStream(std::vector<Lane>& lanes, std::size_t frame_records,
                   std::int64_t gap_ns);

  /// Frame `f` of lane `lane`, stamped from `base_ns`, into `out` (replaced).
  void frame(std::size_t lane, std::size_t f, std::int64_t base_ns,
             std::vector<bpsio::trace::IoRecord>& out) const;
  /// Time one frame covers; frame f spans [base + f W, base + (f + 1) W].
  std::int64_t window_ns() const { return window_; }

 private:
  static constexpr std::size_t kTemplates = 32;
  std::int64_t window_;
  std::vector<std::vector<std::vector<bpsio::trace::IoRecord>>> templates_;
};

/// Totals a consumer must reproduce exactly.
struct StreamTotals {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  std::uint64_t processes = 0;
};

/// The offline input: `files` v2 traces of `records_each` records in `dir`
/// (lane-NN.bpstrace), all covering the same time span so intervals overlap
/// across files; each holds one process (`one_pid`) or its round-robin
/// share of the whole mix. Throws on a write failure.
StreamTotals write_trace_set(const std::string& dir, std::uint64_t seed,
                             std::size_t files, std::size_t records_each,
                             bool one_pid);

}  // namespace bpsbench
