#include "trace/record_source.hpp"

#include <algorithm>
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
}

const IoRecord* MergedSource::refill(Child& child) {
  if (child.done) return nullptr;
  const auto chunk = child.src->next_chunk();
  if (chunk.empty()) {
    child.done = true;
    if (const Status s = child.src->status(); !s.ok() && status_.ok()) {
      status_ = s;
    }
    return nullptr;
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
    child.stop = child.buf.data() + child.buf.size();
    return child.buf.data();
  }
  // No transform: serve the child's span directly (for an mmap child this
  // is a window straight over the file mapping — zero copies so far).
  child.stop = chunk.data() + chunk.size();
  return chunk.data();
}

const IoRecord* MergedSource::fail_remap(Child& child, std::uint32_t pid) {
  child.done = true;
  child.stop = nullptr;
  if (status_.ok()) {
    status_ = Status{Errc::out_of_range,
                     "pid stride " + std::to_string(options_.pid_stride) +
                         " remaps pid " + std::to_string(pid) + " of source " +
                         std::to_string(child.index + 1) + " past " +
                         std::to_string(UINT32_MAX)};
  }
  return nullptr;
}

MergedSource::Key MergedSource::next_head(Child& child) {
  const IoRecord* at = refill(child);
  if (at == nullptr) return Key{kMaxNs, kMaxNs, kDry | child.index, nullptr};
  return Key{at->start_ns, at->end_ns, child.index, at};
}

void MergedSource::build() {
  const std::size_t k = children_.size();
  built_ = true;
  if (k == 0) return;  // winner_ stays dry
  // Play the first heads bottom-up: won[n] is the winner at node n.
  std::vector<Key> won(2 * k);
  for (std::size_t i = 0; i < k; ++i) won[k + i] = next_head(children_[i]);
  losers_.assign(k, Key{kMaxNs, kMaxNs, kDry, nullptr});
  for (std::size_t n = k - 1; n > 0; --n) {
    const bool right = before(won[2 * n + 1], won[2 * n]);
    won[n] = won[2 * n + right];
    losers_[n] = won[2 * n + !right];
  }
  winner_ = won[1];
}

std::span<const IoRecord> MergedSource::next_chunk() {
  if (!built_) {
    build();
  } else if (!dry(winner_)) {
    // Only a wholesale pass leaves the winner's chunk used up with its
    // key still in place: refill it now that its span has been consumed.
    Child& c = children_[child_of(winner_)];
    if (winner_.at == c.stop) {
      winner_ = replay(losers_, children_.size(), next_head(c));
    }
  }
  if (dry(winner_)) return {};  // all children exhausted (or failed)

  // Fast path: when the winner's ENTIRE remaining chunk precedes every
  // other head, the merge would copy it out record by record only to
  // reproduce it verbatim — pass the span through instead. This is the
  // single-source case always, and the common case for drains whose spools
  // barely interleave. The runner-up lost to the winner on its path, so
  // checking those losers checks every other head.
  Child& best = children_[child_of(winner_)];
  const IoRecord& last = best.stop[-1];
  const Key last_key{last.start_ns, last.end_ns, winner_.rank};
  bool wholesale = true;
  for (std::size_t n = (children_.size() + child_of(winner_)) >> 1; n > 0;
       n >>= 1) {
    if (!before(last_key, losers_[n])) {
      wholesale = false;
      break;
    }
  }
  if (wholesale) {
    const std::span<const IoRecord> pass(winner_.at, best.stop);
    winner_.at = best.stop;
    return pass;
  }

  if (out_.empty()) out_.resize(chunk_);
  // Locals, so that the loop keeps them in registers across its stores.
  const std::size_t k = children_.size();
  Key win = winner_;
  std::size_t n = 0;
  while (n < chunk_ && !dry(win)) {
    out_[n++] = *win.at;
    // The winner's next head keeps its rank; only a used-up chunk needs
    // a refill.
    const IoRecord* at = win.at + 1;
    Child& c = children_[child_of(win)];
    const Key key = at != c.stop ? Key{at->start_ns, at->end_ns, win.rank, at}
                                 : next_head(c);
    win = replay(losers_, k, key);
  }
  winner_ = win;
  return {out_.data(), n};
}

}  // namespace bpsio::trace
