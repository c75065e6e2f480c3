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
/// The heads meet in a loser tree: each internal node keeps the key of the
/// head that lost the match there, so emitting a record replays one
/// leaf-to-root path, at most ceil(log2 k) key compares, and reads no other
/// record. When the winner's whole remaining chunk precedes the runner-up
/// (one of the losers on its path), the chunk is returned as the child's
/// own span instead of being copied.
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
    /// The end of the current chunk, which aliases the child source's span
    /// directly when no transform applies (zero copy), `buf` otherwise, and
    /// stays valid until the child's next refill. The read position is the
    /// `at` of the child's key in the tree.
    const IoRecord* stop = nullptr;
    std::unique_ptr<RecordSource> src;
    std::vector<IoRecord> buf;  // transform scratch (shift/remap applied)
    std::int64_t shift = 0;
    std::uint32_t pid_base = 0;  ///< (index + 1) * pid_stride
    /// Largest pid the remap keeps within 32 bits; negative when none.
    std::int64_t pid_room = 0;
    std::uint32_t index = 0;
    bool first = true;
    bool done = false;
  };

  /// A child's head as the tree orders it: (start, end), then `rank`, the
  /// child index with kDry set once the child has run dry. A dry child's
  /// times read (INT64_MAX, INT64_MAX), so the flag sorts it after every
  /// live head and a live record at (INT64_MAX, INT64_MAX) still merges.
  /// `at` is the head record itself, so the winner's next record is found
  /// without a lookup.
  struct Key {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t rank = 0;
    const IoRecord* at = nullptr;
  };
  static constexpr std::uint64_t kDry = std::uint64_t{1} << 32;
  static constexpr std::int64_t kMaxNs =
      std::numeric_limits<std::int64_t>::max();

  static bool dry(const Key& k) { return k.rank >= kDry; }
  static std::uint32_t child_of(const Key& k) {
    return static_cast<std::uint32_t>(k.rank);
  }
  /// True when `a` merges strictly before `b`. Bitwise, not short-circuit,
  /// so that the result feeds swap_if's masks without a branch.
  static bool before(const Key& a, const Key& b) {
    return (a.start < b.start) |
           ((a.start == b.start) &
            ((a.end < b.end) | ((a.end == b.end) & (a.rank < b.rank))));
  }

  /// Pulls `child`'s next chunk; returns its first record, or null once
  /// the child is exhausted or failed.
  const IoRecord* refill(Child& child);
  /// Ends `child` on a pid the remap cannot represent; returns null.
  const IoRecord* fail_remap(Child& child, std::uint32_t pid);
  /// Refills `child` and returns the key of its new chunk's first record.
  Key next_head(Child& child);
  /// Plays every child's first head into the tree.
  void build();
  /// Exchanges `a` and `b` when `c`, through masks: a branch on a tree
  /// compare would mispredict whenever the children's heads interleave.
  static void swap_if(bool c, Key& a, Key& b) {
    const std::int64_t mask = -static_cast<std::int64_t>(c);
    const std::int64_t start = (a.start ^ b.start) & mask;
    const std::int64_t end = (a.end ^ b.end) & mask;
    const std::uint64_t rank =
        (a.rank ^ b.rank) & static_cast<std::uint64_t>(mask);
    const auto at = (reinterpret_cast<std::uintptr_t>(a.at) ^
                     reinterpret_cast<std::uintptr_t>(b.at)) &
                    static_cast<std::uintptr_t>(mask);
    a.start ^= start;
    b.start ^= start;
    a.end ^= end;
    b.end ^= end;
    a.rank ^= rank;
    b.rank ^= rank;
    a.at = reinterpret_cast<const IoRecord*>(
        reinterpret_cast<std::uintptr_t>(a.at) ^ at);
    b.at = reinterpret_cast<const IoRecord*>(
        reinterpret_cast<std::uintptr_t>(b.at) ^ at);
  }

  /// Carries `key`, the new head of the last winner, from its leaf to the
  /// root of the tree over `k` children and returns the new winner: at each
  /// node the earlier key moves up and the later one stays.
  static Key replay(std::vector<Key>& losers, std::size_t k, Key key) {
    for (std::size_t n = (k + child_of(key)) >> 1; n > 0; n >>= 1) {
      swap_if(before(losers[n], key), losers[n], key);
    }
    return key;
  }

  std::vector<Child> children_;
  /// losers_[n], n in [1, k), is the key that lost the match at node n;
  /// node n plays nodes 2n and 2n + 1, and child i's leaf is node k + i.
  std::vector<Key> losers_;
  /// The earliest head; dry once every child is.
  Key winner_{kMaxNs, kMaxNs, kDry, nullptr};
  bool built_ = false;
  MergeOptions options_;
  std::vector<IoRecord> out_;
  std::size_t chunk_;
  std::optional<std::uint64_t> hint_;
  Status status_;
};

}  // namespace bpsio::trace
