// Combining traces from multiple applications.
//
// "If the I/O system services more than one application concurrently, we
//  record the I/O access information of all the applications." (Sec. III.B)
// When the applications were traced separately, their records must be
// merged into one collection before computing BPS: pids are remapped to
// avoid collisions, and time bases can be aligned when the traces were
// captured against different clocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "trace/io_record.hpp"

namespace bpsio::trace {

enum class TimeAlignment {
  keep,         ///< trust the recorded timestamps (shared clock)
  align_starts, ///< shift each trace so its earliest start is t=0
};

struct MergeOptions {
  TimeAlignment alignment = TimeAlignment::keep;
  /// Remap pids to (source_index+1) * pid_stride + original_pid so records
  /// from different applications never collide. 0 = keep original pids, even
  /// when sources share pid values — callers opting out of remapping accept
  /// that records from different applications become indistinguishable by
  /// pid (per-pid filters then select the union of the colliding processes).
  /// Remapped pids must fit in 32 bits: MergedSource fails its stream with
  /// Errc::out_of_range at a pid the remap would carry past UINT32_MAX.
  std::uint32_t pid_stride = 1000;
};

/// Merge several applications' record sets into one, ordered by (start,
/// end); equal keys come in source order, then in input order. This is a
/// MergedSource over each trace stable-sorted (VectorSource::sorted),
/// drained into one vector — the same merge bpsio_report streams. A pid the
/// remap cannot represent is a precondition violation (checked).
std::vector<IoRecord> merge_traces(
    const std::vector<std::vector<IoRecord>>& traces,
    const MergeOptions& options = {});

/// The daemons' drain merge: captured records carry real distinct pids and
/// a shared monotonic clock, so timestamps and pids are kept as they are.
inline constexpr MergeOptions kDrainMerge{TimeAlignment::keep, 0};

/// K-way merge trace files into one v2 trace at `out_path`, streaming: a
/// MergedSource over one MappedTraceSource per path, in the caller's order
/// (which fixes the tie-break of equal-keyed records), appended through one
/// SpillWriter, so memory stays O(chunk x files). Every input must be
/// (start, end)-ordered; an inversion inside any input shows as an
/// inversion between two adjacent output records, and fails the merge
/// (Errc::invalid_argument). On any failure an output that is a regular
/// file is removed. An empty path list writes a valid empty trace.
Status merge_trace_files(const std::vector<std::string>& paths,
                         const std::string& out_path,
                         const MergeOptions& options);

/// The drain's merge, merge_trace_files(paths, out_path, kDrainMerge); kept
/// for bpsbench/src/layers.cpp, which times it under this name.
Status merge_trace_files(const std::vector<std::string>& paths,
                         const std::string& out_path);

}  // namespace bpsio::trace
