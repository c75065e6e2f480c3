// Trace persistence: the binary ".bpstrace" format, and CSV export.
//
// The paper's methodology stores records "on available media, such as memory
// or disk space, according to a configuration file defined by users". The
// binary format is a fixed header plus raw 32-byte records, so a 65535-op
// trace is ~2 MiB on disk, matching the paper's space-overhead analysis.
//
// One writer and one reader implement it: SpillWriter (trace/spill_writer.hpp)
// writes every trace file, MappedTraceSource (trace/mapped_source.hpp) reads
// every one. save_binary() and load_binary() are the whole-vector
// conveniences over them.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "trace/io_record.hpp"

namespace bpsio::trace {

inline constexpr std::uint32_t kTraceMagic = 0x42505354;  // "BPST"
// v2: header carries the record size so a reader can reject traces written
// with a different (corrupt, foreign, or future) record layout instead of
// reinterpreting their bytes.
inline constexpr std::uint32_t kTraceVersion = 2;

/// On-disk header of the binary format. All fields little-endian host order.
struct TraceHeader {
  std::uint32_t magic = kTraceMagic;
  std::uint32_t version = kTraceVersion;
  std::uint32_t record_size = sizeof(IoRecord);  ///< must be 32 (paper §III)
  std::uint32_t reserved = 0;
  std::uint64_t record_count = 0;
};
static_assert(sizeof(TraceHeader) == 24, "header layout is part of the format");

/// Write `records` to `path` through a SpillWriter. Returns bytes written.
Result<std::size_t> save_binary(const std::string& path,
                                const std::vector<IoRecord>& records);

/// Validate a v2 header from raw bytes (`size` is how many are available):
/// THE header check, which MappedTraceSource applies to the mapping. Rejects
/// a short header, bad magic, a wrong version and non-32-byte records.
Result<TraceHeader> parse_trace_header(const char* data, std::size_t size);

/// Read a whole trace file: a drained MappedTraceSource, failing as it fails
/// (bad header, truncation).
Result<std::vector<IoRecord>> load_binary(const std::string& path);

/// CSV with header "pid,op,flags,blocks,start_ns,end_ns".
void write_csv(std::ostream& out, const std::vector<IoRecord>& records);

}  // namespace bpsio::trace
