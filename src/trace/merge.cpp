#include "trace/merge.hpp"

#include <filesystem>
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

namespace {

/// Appends `merged` to `out`, failing at the first record that precedes
/// the one before it: an inversion inside any input shows there.
Status copy_ordered(MergedSource& merged, SpillWriter& out) {
  OrderCheck order;
  for (auto chunk = merged.next_chunk(); !chunk.empty();
       chunk = merged.next_chunk()) {
    if (const Status checked = order.check(chunk); !checked.ok()) {
      return Error{Errc::invalid_argument,
                   "an input is not in (start, end) order: the merge is " +
                       checked.error().message};
    }
    out.append(chunk);
  }
  return merged.status();
}

/// Removes a failed merge's output when it is a regular file; a device, a
/// pipe or a symlink named as the output stays as it is.
void remove_output(const std::string& out_path) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(
          std::filesystem::symlink_status(out_path, ec))) {
    std::filesystem::remove(out_path, ec);
  }
}

}  // namespace

Status merge_trace_files(const std::vector<std::string>& paths,
                         const std::string& out_path,
                         const MergeOptions& options) {
  std::vector<std::unique_ptr<RecordSource>> children;
  children.reserve(paths.size());
  for (const std::string& path : paths) {
    auto source = open_trace_source(path);
    if (!source->status().ok()) {
      return Error{Errc::io_error, "merge cannot read " + path + ": " +
                                       source->status().to_string()};
    }
    // The output is truncated before the inputs are read.
    std::error_code ec;
    if (std::filesystem::equivalent(path, out_path, ec)) {
      return Error{Errc::invalid_argument,
                   "merge output " + out_path + " is also an input"};
    }
    children.push_back(std::move(source));
  }
  MergedSource merged(std::move(children), options);

  SpillWriter out(out_path);
  if (!out.ok()) {
    return Error{Errc::io_error, "merge cannot open output " + out_path};
  }
  if (const Status copied = copy_ordered(merged, out); !copied.ok()) {
    (void)out.close();
    remove_output(out_path);
    return Error{copied.error().code, "merge failed: " + copied.error().message};
  }
  if (const Status closed = out.close(); !closed.ok()) {
    remove_output(out_path);
    return Error{Errc::io_error, "merge close failed for " + out_path + ": " +
                                     closed.to_string()};
  }
  return {};
}

Status merge_trace_files(const std::vector<std::string>& paths,
                         const std::string& out_path) {
  return merge_trace_files(paths, out_path, kDrainMerge);
}

}  // namespace bpsio::trace
