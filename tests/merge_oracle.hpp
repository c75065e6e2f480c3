// Reference trace merge for the merge tests.
//
// Concatenate the traces, shifted and pid-remapped the way MergeOptions
// asks, then stable-sort by (start, end): equal keys keep source order,
// then input order. merge_traces and MergedSource must reproduce it record
// for record.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "trace/io_record.hpp"
#include "trace/merge.hpp"

namespace bpsio::trace {

inline std::vector<IoRecord> merge_oracle(
    const std::vector<std::vector<IoRecord>>& traces,
    const MergeOptions& options) {
  std::vector<IoRecord> out;
  for (std::size_t src = 0; src < traces.size(); ++src) {
    std::int64_t shift = 0;
    if (options.alignment == TimeAlignment::align_starts) {
      std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
      for (const IoRecord& r : traces[src]) {
        earliest = std::min(earliest, r.start_ns);
      }
      if (!traces[src].empty()) shift = -earliest;
    }
    for (IoRecord r : traces[src]) {
      if (options.pid_stride > 0) {
        r.pid =
            static_cast<std::uint32_t>(src + 1) * options.pid_stride + r.pid;
      }
      r.start_ns += shift;
      r.end_ns += shift;
      out.push_back(r);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const IoRecord& a, const IoRecord& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.end_ns < b.end_ns;
                   });
  return out;
}

}  // namespace bpsio::trace
