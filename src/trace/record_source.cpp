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

VectorSource collector_view(const TraceCollector& collector,
                            std::size_t chunk_records) {
  return VectorSource::view(collector.records(), chunk_records);
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
  out_.reserve(chunk_);
}

bool MergedSource::refill(Child& child) {
  if (child.done) return false;
  const auto chunk = child.src->next_chunk();
  if (chunk.empty()) {
    child.done = true;
    if (const Status s = child.src->status(); !s.ok() && status_.ok()) {
      status_ = s;
    }
    return false;
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
    child.view = child.buf;
  } else {
    // No transform: serve the child's span directly (for an mmap child this
    // is a window straight over the file mapping — zero copies so far).
    child.view = chunk;
  }
  child.pos = 0;
  return true;
}

bool MergedSource::fail_remap(Child& child, std::uint32_t pid) {
  child.done = true;
  child.view = {};
  if (status_.ok()) {
    status_ = Status{Errc::out_of_range,
                     "pid stride " + std::to_string(options_.pid_stride) +
                         " remaps pid " + std::to_string(pid) + " of source " +
                         std::to_string(child.index + 1) + " past " +
                         std::to_string(UINT32_MAX)};
  }
  return false;
}

bool MergedSource::precedes(const IoRecord& a, std::uint32_t ia,
                            const IoRecord& b, std::uint32_t ib) {
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
  if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns;
  return ia < ib;
}

std::span<const IoRecord> MergedSource::next_chunk() {
  // Fast path: when the best child's ENTIRE remaining chunk precedes every
  // other child's head, the merge would copy it out record by record only to
  // reproduce it verbatim — pass the span through instead. This is the
  // single-source case always, and the common case for drains whose spools
  // barely interleave.
  Child* best = nullptr;
  bool sole_live = true;
  for (Child& c : children_) {
    if (c.pos >= c.view.size() && !refill(c)) continue;
    if (best == nullptr) {
      best = &c;
      continue;
    }
    sole_live = false;
    if (precedes(c.view[c.pos], c.index, best->view[best->pos], best->index)) {
      best = &c;
    }
  }
  if (best == nullptr) return {};  // all children exhausted (or failed)
  bool wholesale = sole_live;
  if (!sole_live) {
    const IoRecord& last = best->view.back();
    wholesale = true;
    for (const Child& c : children_) {
      if (&c == best || c.pos >= c.view.size()) continue;
      if (!precedes(last, best->index, c.view[c.pos], c.index)) {
        wholesale = false;
        break;
      }
    }
  }
  if (wholesale) {
    const auto pass = best->view.subspan(best->pos);
    best->pos = best->view.size();
    return pass;
  }

  out_.clear();
  while (out_.size() < chunk_) {
    best = nullptr;
    for (Child& c : children_) {
      if (c.pos >= c.view.size() && !refill(c)) continue;
      if (best == nullptr) {
        best = &c;
        continue;
      }
      const IoRecord& a = c.view[c.pos];
      const IoRecord& b = best->view[best->pos];
      // Strict less, children scanned in index order: lower child index wins
      // ties.
      if (a.start_ns < b.start_ns ||
          (a.start_ns == b.start_ns && a.end_ns < b.end_ns)) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    out_.push_back(best->view[best->pos++]);
  }
  return {out_.data(), out_.size()};
}

// ---------------------------------------------------------------------------
// FilteredSource
// ---------------------------------------------------------------------------

FilteredSource::FilteredSource(RecordSource& inner, RecordFilter filter)
    : inner_(&inner), filter_(std::move(filter)) {}

std::span<const IoRecord> FilteredSource::next_chunk() {
  buf_.clear();
  while (buf_.empty()) {
    const auto chunk = inner_->next_chunk();
    if (chunk.empty()) return {};
    for (const IoRecord& r : chunk) {
      if (filter_.matches(r)) buf_.push_back(r);
    }
  }
  return {buf_.data(), buf_.size()};
}

}  // namespace bpsio::trace
