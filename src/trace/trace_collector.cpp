#include "trace/trace_collector.hpp"

#include <algorithm>
#include <unordered_set>

namespace bpsio::trace {

bool RecordFilter::matches(const IoRecord& r) const {
  if (pid && r.pid != *pid) return false;
  if (op && r.op != *op) return false;
  if (window_start_ns && r.end_ns < *window_start_ns) return false;
  if (window_end_ns && r.start_ns >= *window_end_ns) return false;
  if (!include_failed && r.failed()) return false;
  return true;
}

void TraceCollector::gather(const TraceBuffer& buffer) {
  MutexLock lock(mu_);
  records_.insert(records_.end(), buffer.records().begin(),
                  buffer.records().end());
}

void TraceCollector::gather(const std::vector<IoRecord>& records) {
  MutexLock lock(mu_);
  records_.insert(records_.end(), records.begin(), records.end());
}

void TraceCollector::add(const IoRecord& record) {
  MutexLock lock(mu_);
  records_.push_back(record);
}

void TraceCollector::clear() {
  MutexLock lock(mu_);
  records_.clear();
}

std::size_t TraceCollector::record_count() const {
  MutexLock lock(mu_);
  return records_.size();
}

std::uint64_t TraceCollector::total_blocks(const RecordFilter& filter) const {
  std::uint64_t sum = 0;
  for (const auto& r : records()) {
    if (filter.matches(r)) sum += r.blocks;
  }
  return sum;
}

std::vector<TimeInterval> TraceCollector::col_time(
    const RecordFilter& filter) const {
  std::vector<TimeInterval> out;
  out.reserve(records().size());
  for (const auto& r : records()) {
    if (!filter.matches(r)) continue;
    // Clamp to the analysis window when one is given, so windowed BPS only
    // counts I/O time inside the window.
    std::int64_t s = r.start_ns;
    std::int64_t e = r.end_ns;
    if (filter.window_start_ns) s = std::max(s, *filter.window_start_ns);
    if (filter.window_end_ns) e = std::min(e, *filter.window_end_ns);
    if (e < s) continue;
    out.push_back(TimeInterval{s, e});
  }
  return out;
}

std::size_t TraceCollector::process_count() const {
  std::unordered_set<std::uint32_t> pids;
  for (const auto& r : records()) pids.insert(r.pid);
  return pids.size();
}

}  // namespace bpsio::trace
