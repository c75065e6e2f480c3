#include "trace/serialize.hpp"

#include <cstring>
#include <ostream>

#include "trace/mapped_source.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio::trace {

Result<std::size_t> save_binary(const std::string& path,
                                const std::vector<IoRecord>& records) {
  SpillWriter out(path);
  if (!out.ok()) return Error{Errc::io_error, "cannot open " + path};
  out.append(records);
  if (const Status closed = out.close(); !closed.ok()) return closed.error();
  return sizeof(TraceHeader) + records.size() * sizeof(IoRecord);
}

Result<TraceHeader> parse_trace_header(const char* data, std::size_t size) {
  if (size < sizeof(TraceHeader)) {
    return Error{Errc::invalid_argument,
                 "truncated trace header (" + std::to_string(size) + " of " +
                     std::to_string(sizeof(TraceHeader)) + " bytes)"};
  }
  TraceHeader header;
  std::memcpy(&header, data, sizeof header);
  if (header.magic != kTraceMagic) {
    return Error{Errc::invalid_argument, "bad trace magic"};
  }
  if (header.version != kTraceVersion) {
    return Error{Errc::unsupported, "unsupported trace version " +
                                        std::to_string(header.version) +
                                        " (expected " +
                                        std::to_string(kTraceVersion) + ")"};
  }
  if (header.record_size != sizeof(IoRecord)) {
    return Error{Errc::unsupported,
                 "non-32-byte record size " +
                     std::to_string(header.record_size) +
                     " (paper-format records are " +
                     std::to_string(sizeof(IoRecord)) + " bytes)"};
  }
  return header;
}

Result<std::vector<IoRecord>> load_binary(const std::string& path) {
  MappedTraceSource source(path);
  std::vector<IoRecord> records;
  // The hint never exceeds the records the file holds, whatever the header
  // claims.
  records.reserve(static_cast<std::size_t>(source.size_hint().value_or(0)));
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    records.insert(records.end(), chunk.begin(), chunk.end());
  }
  if (const Status status = source.status(); !status.ok()) {
    return status.error();
  }
  return records;
}

void write_csv(std::ostream& out, const std::vector<IoRecord>& records) {
  out << "pid,op,flags,blocks,start_ns,end_ns\n";
  for (const auto& r : records) {
    out << r.pid << ',' << (r.op == IoOpKind::read ? "read" : "write") << ','
        << static_cast<unsigned>(r.flags) << ',' << r.blocks << ','
        << r.start_ns << ',' << r.end_ns << '\n';
  }
}

}  // namespace bpsio::trace
