#include "trace/merge.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "common/check.hpp"
#include "trace/mapped_source.hpp"
#include "trace/record_source.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio::trace {

std::vector<IoRecord> merge_traces(
    const std::vector<std::vector<IoRecord>>& traces,
    const MergeOptions& options) {
  std::vector<std::unique_ptr<RecordSource>> children;
  children.reserve(traces.size());
  for (const auto& t : traces) {
    children.push_back(std::make_unique<VectorSource>(VectorSource::sorted(t)));
  }
  MergedSource merged(std::move(children), options);
  std::vector<IoRecord> out;
  out.reserve(merged.size_hint().value_or(0));
  for (auto chunk = merged.next_chunk(); !chunk.empty();
       chunk = merged.next_chunk()) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  BPSIO_CHECK(merged.status().ok(), "merge_traces: %s",
              merged.status().to_string().c_str());
  return out;
}

Status merge_trace_files(std::vector<std::string> paths,
                         const std::string& out_path) {
  std::sort(paths.begin(), paths.end());
  std::vector<std::unique_ptr<RecordSource>> children;
  children.reserve(paths.size());
  for (const std::string& path : paths) {
    auto source = open_trace_source(path);
    if (!source->status().ok()) {
      return Error{Errc::io_error, "merge cannot read spool " + path + ": " +
                                       source->status().to_string()};
    }
    children.push_back(std::move(source));
  }
  MergeOptions options;
  options.alignment = TimeAlignment::keep;
  options.pid_stride = 0;  // spooled records carry real, distinct pids
  MergedSource merged(std::move(children), options);

  SpillWriter out(out_path);
  if (!out.ok()) {
    return Error{Errc::io_error, "merge cannot open output " + out_path};
  }
  for (;;) {
    const std::span<const IoRecord> chunk = merged.next_chunk();
    if (chunk.empty()) break;
    out.append(chunk);
  }
  if (!merged.status().ok()) {
    return Error{Errc::io_error,
                 "spool merge failed: " + merged.status().to_string()};
  }
  const Status closed = out.close();
  if (!closed.ok()) {
    return Error{Errc::io_error,
                 "merge close failed for " + out_path + ": " +
                     closed.to_string()};
  }
  return {};
}

}  // namespace bpsio::trace
