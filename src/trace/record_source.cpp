#include "trace/record_source.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

namespace bpsio::trace {

namespace {

// The canonical record order (PAPER.md §III.B / Figure 3): by start time,
// ties by end time. Stable so equal keys keep their input order.
void sort_records(std::vector<IoRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const IoRecord& a, const IoRecord& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.end_ns < b.end_ns;
                   });
}

// The merge key (start, end) as one 128-bit word, each half's sign bit
// flipped so that unsigned order is signed order: in-memory children may
// hold negative times.
__extension__ typedef unsigned __int128 uint128;
uint128 key(const IoRecord& r) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return uint128{static_cast<std::uint64_t>(r.start_ns) ^ kSign} << 64 |
         (static_cast<std::uint64_t>(r.end_ns) ^ kSign);
}

// `b` where `mask` is all ones, `a` where it is zero. A mask, not a `?:`:
// the compiler makes that a branch, which mispredicts whenever the merged
// inputs interleave.
const IoRecord* pick(std::uintptr_t mask, const IoRecord* a,
                     const IoRecord* b) {
  const auto ia = reinterpret_cast<std::uintptr_t>(a);
  return reinterpret_cast<const IoRecord*>(
      ia ^ ((ia ^ reinterpret_cast<std::uintptr_t>(b)) & mask));
}

}  // namespace

Status OrderCheck::inversion(const IoRecord& r, std::uint64_t index) const {
  return Status{Errc::invalid_argument,
                "unordered at record #" + std::to_string(index) + ": (start " +
                    std::to_string(r.start_ns) + ", end " +
                    std::to_string(r.end_ns) + ") after (start " +
                    std::to_string(prev_start_) + ", end " +
                    std::to_string(prev_end_) + ")"};
}

// ---------------------------------------------------------------------------
// VectorSource
// ---------------------------------------------------------------------------

VectorSource::VectorSource(std::vector<IoRecord> owned,
                           std::span<const IoRecord> data,
                           std::size_t chunk_records)
    : owned_(std::move(owned)),
      data_(data),
      chunk_(chunk_records ? chunk_records : 1) {
  if (!owned_.empty() || data_.empty()) data_ = owned_;
}

VectorSource VectorSource::view(std::span<const IoRecord> records,
                                std::size_t chunk_records) {
  return VectorSource({}, records, chunk_records);
}

VectorSource VectorSource::sorted(std::vector<IoRecord> records,
                                  std::size_t chunk_records) {
  sort_records(records);
  return VectorSource(std::move(records), {}, chunk_records);
}

std::span<const IoRecord> VectorSource::next_chunk() {
  if (pos_ >= data_.size()) return {};
  const std::size_t take = std::min(chunk_, data_.size() - pos_);
  const auto chunk = data_.subspan(pos_, take);
  pos_ += take;
  return chunk;
}

VectorSource collector_source(const TraceCollector& collector,
                              const RecordFilter& filter,
                              std::size_t chunk_records) {
  std::vector<IoRecord> snapshot;
  snapshot.reserve(collector.record_count());
  for (const IoRecord& r : collector.records()) {
    if (filter.matches(r)) snapshot.push_back(r);
  }
  return VectorSource::sorted(std::move(snapshot), chunk_records);
}

// ---------------------------------------------------------------------------
// MergedSource
// ---------------------------------------------------------------------------

MergedSource::MergedSource(std::vector<std::unique_ptr<RecordSource>> children,
                           MergeOptions options, std::size_t chunk_records)
    : options_(options), chunk_(chunk_records ? chunk_records : 1) {
  children_.reserve(children.size());
  std::uint64_t total = 0;
  bool all_known = true;
  for (std::size_t i = 0; i < children.size(); ++i) {
    Child c;
    c.src = std::move(children[i]);
    c.index = static_cast<std::uint32_t>(i);
    const std::uint64_t base = (i + 1) * std::uint64_t{options_.pid_stride};
    c.pid_base = static_cast<std::uint32_t>(base);
    c.pid_room = base > UINT32_MAX
                     ? -1
                     : static_cast<std::int64_t>(UINT32_MAX - base);
    if (const auto hint = c.src->size_hint(); hint && all_known) {
      total += *hint;
    } else {
      all_known = false;
    }
    children_.push_back(std::move(c));
  }
  if (all_known) hint_ = total;
  leaves_ = std::bit_ceil(std::max<std::size_t>(children_.size(), 1));
  nodes_.resize(2 * leaves_);
  for (std::size_t i = children_.size(); i < leaves_; ++i) {
    nodes_[leaves_ + i].dry = true;
  }
}

std::span<const IoRecord> MergedSource::refill(Child& child) {
  const auto chunk = child.src->next_chunk();
  if (chunk.empty()) {
    if (const Status s = child.src->status(); !s.ok() && status_.ok()) {
      status_ = s;
    }
    return {};
  }
  if (child.first) {
    child.first = false;
    // Ordered child stream: the first record carries the earliest start, so
    // this is the same shift the batch merge computes with a full min-scan.
    if (options_.alignment == TimeAlignment::align_starts) {
      child.shift = -chunk.front().start_ns;
    }
  }
  if (options_.pid_stride > 0 || child.shift != 0) {
    child.buf.assign(chunk.begin(), chunk.end());
    for (IoRecord& r : child.buf) {
      if (options_.pid_stride > 0) {
        if (r.pid > child.pid_room) return fail_remap(child, r.pid);
        r.pid = child.pid_base + r.pid;
      }
      r.start_ns += child.shift;
      r.end_ns += child.shift;
    }
    return child.buf;
  }
  // No transform: serve the child's span directly (for an mmap child this
  // is a window straight over the file mapping — zero copies so far).
  return chunk;
}

std::span<const IoRecord> MergedSource::fail_remap(Child& child,
                                                   std::uint32_t pid) {
  if (status_.ok()) {
    status_ = Status{Errc::out_of_range,
                     "pid stride " + std::to_string(options_.pid_stride) +
                         " remaps pid " + std::to_string(pid) + " of source " +
                         std::to_string(child.index + 1) + " past " +
                         std::to_string(UINT32_MAX)};
  }
  return {};
}

bool MergedSource::pull(std::size_t n) {
  Node& node = nodes_[n];
  if (node.at != node.stop) return true;
  if (node.dry) return false;
  if (n < leaves_) {
    fill(n);
  } else {
    const auto run = refill(children_[n - leaves_]);
    node.at = run.data();
    node.stop = run.data() + run.size();
    node.dry = run.empty();
  }
  return !node.dry;
}

void MergedSource::fill(std::size_t n) {
  Node& node = nodes_[n];
  Node& l = nodes_[2 * n];
  Node& r = nodes_[2 * n + 1];
  const bool live_l = pull(2 * n);
  const bool live_r = pull(2 * n + 1);
  // Hand a run up whole when the other input is dry or its head follows
  // the run's last record (a tie goes left).
  Node* pass = live_l ? &l : &r;
  if (live_l && live_r) {
    pass = key(l.stop[-1]) <= key(*r.at)  ? &l
           : key(r.stop[-1]) < key(*l.at) ? &r
                                          : nullptr;
  } else if (!live_l && !live_r) {
    node.dry = true;
    return;
  }
  if (pass != nullptr) {
    node.at = pass->at;
    node.stop = pass->stop;
    pass->at = pass->stop;
    return;
  }

  IoRecord* begin = nullptr;
  std::size_t room = chunk_;
  if (n == 1) {
    if (out_.empty()) out_.resize(chunk_);
    begin = out_.data();
  } else {
    if (bufs_.empty()) bufs_.resize((leaves_ - 2) * kNodeRecords);
    begin = bufs_.data() + (n - 2) * kNodeRecords;
    // Capped by the chunk too, so a buffer handed up through the root is
    // never longer than an output chunk.
    room = std::min(room, kNodeRecords);
  }
  IoRecord* out = begin;
  IoRecord* const end = begin + room;
  do {
    // Neither input runs out within `steps`, so the loop takes the earlier
    // head and advances its input without a branch.
    const auto steps = std::min({l.stop - l.at, r.stop - r.at, end - out});
    const IoRecord* a = l.at;
    const IoRecord* b = r.at;
    for (std::ptrdiff_t i = 0; i < steps; ++i) {
      const std::uintptr_t right = 0 - std::uintptr_t{key(*b) < key(*a)};
      *out++ = *pick(right, a, b);
      a = pick(right, a + 1, a);
      b = pick(right, b, b + 1);
    }
    l.at = a;
    r.at = b;
  } while (out != end && pull(2 * n) && pull(2 * n + 1));
  node.at = begin;
  node.stop = out;
}

std::span<const IoRecord> MergedSource::next_chunk() {
  if (!pull(1)) return {};  // all children exhausted (or failed)
  Node& root = nodes_[1];
  const std::span<const IoRecord> run(root.at, root.stop);
  root.at = root.stop;
  return run;
}

}  // namespace bpsio::trace
