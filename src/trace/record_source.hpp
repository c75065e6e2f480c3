// Streaming record sources — the pull side of the metric pipeline.
//
// The paper's methodology is a stream: 32-byte records flow from the capture
// points into a global collection where B accumulates and col_time is merged
// into T (Section III.B). A RecordSource surfaces that stream in bounded
// chunks so the metric layer never has to materialize a whole trace:
//
//   * VectorSource         — view over in-memory records (or an owned,
//                            sorted snapshot of a TraceCollector:
//                            collector_source, the one place a pipeline
//                            run applies a RecordFilter).
//   * MappedTraceSource    — streams a .bpstrace file as spans over its
//                            mapping (trace/mapped_source.hpp).
//   * MergedSource         — deterministic k-way merge over per-process /
//                            per-application sources (merge_traces drains
//                            one into a vector).
//
// Ordering contract: every RecordSource yields records in nondecreasing
// (start_ns, end_ns) order. The MetricPipeline verifies this and refuses
// unordered streams, because the single-pass overlap merge depends on it.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "trace/io_record.hpp"
#include "trace/merge.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::trace {

/// Default records per next_chunk() call: 16384 records = 512 KiB resident.
inline constexpr std::size_t kDefaultSourceChunk = std::size_t{1} << 14;

/// Pull-iterator over an ordered record stream.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// The next chunk of records, or an empty span when the stream is
  /// exhausted (or failed — check status()). The span is valid until the
  /// next next_chunk() call on the same source.
  virtual std::span<const IoRecord> next_chunk() = 0;

  /// Total records this source will yield, when cheaply known (e.g. from a
  /// trace header). Consumers may use it to reserve; never to terminate.
  virtual std::optional<std::uint64_t> size_hint() const { return std::nullopt; }

  /// Ok while the stream is healthy; a failed source yields no further
  /// chunks and reports why here.
  virtual Status status() const { return {}; }
};

/// Follows a record stream chunk by chunk and finds the first record out of
/// the ordering contract: MetricPipeline::run and merge_trace_files check
/// their streams with it.
class OrderCheck {
 public:
  /// Checks the stream's next chunk: fails (Errc::invalid_argument) at a
  /// record that precedes the one before it, naming its index in the
  /// stream and both records' times.
  Status check(std::span<const IoRecord> chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const IoRecord& r = chunk[i];
      if (r.start_ns < prev_start_ ||
          (r.start_ns == prev_start_ && r.end_ns < prev_end_)) {
        return inversion(r, checked_ + i);
      }
      prev_start_ = r.start_ns;
      prev_end_ = r.end_ns;
    }
    checked_ += chunk.size();
    return {};
  }

 private:
  Status inversion(const IoRecord& r, std::uint64_t index) const;

  // No record precedes (INT64_MIN, INT64_MIN), so the first always passes.
  std::int64_t prev_start_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t prev_end_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t checked_ = 0;
};

/// In-memory source over a span or an owned vector of records.
class VectorSource final : public RecordSource {
 public:
  /// Non-owning view over records that are ALREADY in (start, end) order
  /// (e.g. merge_traces output). The caller keeps the storage alive.
  static VectorSource view(std::span<const IoRecord> records,
                           std::size_t chunk_records = kDefaultSourceChunk);

  /// Owning source: takes the records and stable-sorts them into the
  /// canonical (start, end) order (ties keep their input order).
  static VectorSource sorted(std::vector<IoRecord> records,
                             std::size_t chunk_records = kDefaultSourceChunk);

  std::span<const IoRecord> next_chunk() override;
  std::optional<std::uint64_t> size_hint() const override { return data_.size(); }

 private:
  VectorSource(std::vector<IoRecord> owned, std::span<const IoRecord> data,
               std::size_t chunk_records);

  std::vector<IoRecord> owned_;        // empty for views
  std::span<const IoRecord> data_;
  std::size_t pos_ = 0;
  std::size_t chunk_;
};

/// Snapshot a collector into an owned, filtered, (start, end)-ordered source.
/// This is the batch-compat adapter: every batch entry point funnels its
/// records through here so batch and streaming runs execute the same code.
/// Window filters select overlapping records whole; clamping their time to
/// the window stays in the overlap consumer, exactly as TraceCollector::
/// col_time() clamps but total_blocks() does not.
VectorSource collector_source(const TraceCollector& collector,
                              const RecordFilter& filter = {},
                              std::size_t chunk_records = kDefaultSourceChunk);

/// Deterministic k-way merge over ordered child sources, and the only trace
/// merge (merge_traces drains one): output is ordered by (start, end), equal
/// keys by child index, then in each child's own order. MergeOptions pid
/// remapping and start alignment apply per child (a child's first record
/// carries its earliest start, since children are ordered). A failing child
/// truncates the stream and surfaces through status(); so does a pid the
/// remap would carry past UINT32_MAX (Errc::out_of_range).
///
/// The children meet in a fixed binary tree of two-way merges, its leaves
/// padded with dry children to a power of two so that a node's left input
/// holds the lower child indices. Each internal node merges its inputs'
/// runs into a buffer of kNodeRecords (the root into the output chunk) with
/// a branch-free loop that gives ties to the left input. A node whose other
/// input is dry, or whose input's run precedes the other input's head,
/// hands that run up by pointer instead: a sole live child, and children
/// that do not interleave, come out as the children's own spans.
class MergedSource final : public RecordSource {
 public:
  explicit MergedSource(std::vector<std::unique_ptr<RecordSource>> children,
                        MergeOptions options = {},
                        std::size_t chunk_records = kDefaultSourceChunk);

  std::span<const IoRecord> next_chunk() override;
  std::optional<std::uint64_t> size_hint() const override { return hint_; }
  Status status() const override { return status_; }

 private:
  struct Child {
    std::unique_ptr<RecordSource> src;
    std::vector<IoRecord> buf;  // transform scratch (shift/remap applied)
    std::int64_t shift = 0;
    std::uint32_t pid_base = 0;  ///< (index + 1) * pid_stride
    /// Largest pid the remap keeps within 32 bits; negative when none.
    std::int64_t pid_room = 0;
    std::uint32_t index = 0;
    bool first = true;
  };

  /// The ordered run a node hands its parent, [at, stop): in the node's
  /// buffer, or handed up from below. A node refills only once its parent
  /// has used the run up, so the storage stays valid until then.
  struct Node {
    const IoRecord* at = nullptr;
    const IoRecord* stop = nullptr;
    bool dry = false;
  };

  /// Records in an internal node's buffer (8 KiB).
  static constexpr std::size_t kNodeRecords = 256;

  /// Pulls `child`'s next chunk, shifted and remapped when the options ask;
  /// empty once the child is exhausted or failed.
  std::span<const IoRecord> refill(Child& child);
  /// Ends `child` on a pid the remap cannot represent.
  std::span<const IoRecord> fail_remap(Child& child, std::uint32_t pid);
  /// Leaves node `n` with a nonempty run; false once it has run dry.
  bool pull(std::size_t n);
  /// Refills internal node `n` from nodes 2n and 2n + 1.
  void fill(std::size_t n);

  std::vector<Child> children_;
  /// nodes_[n], n in [1, 2 * leaves_): node n merges nodes 2n and 2n + 1,
  /// and child i's leaf is node leaves_ + i.
  std::vector<Node> nodes_;
  std::size_t leaves_ = 1;  ///< the child count padded to a power of two
  /// kNodeRecords for each node in [2, leaves_); the root fills out_.
  std::vector<IoRecord> bufs_;
  MergeOptions options_;
  std::vector<IoRecord> out_;
  std::size_t chunk_;
  std::optional<std::uint64_t> hint_;
  Status status_;
};

}  // namespace bpsio::trace
