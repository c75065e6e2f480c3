// Reference window store for the differential tests of SlidingWindowMetrics.
//
// This is the store SlidingWindowMetrics used before end-time buckets: one
// full-width entry per live record in a min-heap on end time, popped record
// by record as the window edge passes, and a per-record insert into a flat
// sorted set of disjoint busy intervals. It is slow and simple on purpose;
// test_online checks the production store against it after every step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "common/sim_time.hpp"
#include "trace/io_record.hpp"

namespace bpsio::metrics::testing {

class HeapWindowOracle {
 public:
  explicit HeapWindowOracle(SimDuration window) : window_(window) {}

  void add(const trace::IoRecord& record) {
    if (!record.valid()) return;
    if (!any_ || record.end_ns > now_.ns()) now_ = SimTime(record.end_ns);
    any_ = true;
    const std::int64_t ws = window_start_ns();
    if (record.end_ns > ws) {
      live_.push(Live{record.end_ns, record.blocks,
                      record.end_ns - record.start_ns});
      ++count_;
      blocks_ += record.blocks;
      response_sum_ns_ += record.end_ns - record.start_ns;
      const std::int64_t clipped_start = std::max(record.start_ns, ws);
      if (record.end_ns > clipped_start) {
        insert_interval(clipped_start, record.end_ns);
      }
    }
    evict();
  }

  /// A span is its records one by one: a record accepted and then expired
  /// within the span leaves the same state as one never accepted.
  void add(std::span<const trace::IoRecord> records) {
    for (const trace::IoRecord& r : records) add(r);
  }

  void advance(SimTime now) {
    if (!any_ || now.ns() <= now_.ns()) return;
    now_ = now;
    evict();
  }

  SimTime now() const { return now_; }
  std::uint64_t accesses() const { return count_; }
  std::uint64_t blocks() const { return blocks_; }
  SimDuration io_time() const { return SimDuration(busy_ns_); }
  double arpt_s() const {
    if (count_ == 0) return 0.0;
    return static_cast<double>(response_sum_ns_) / 1e9 /
           static_cast<double>(count_);
  }

 private:
  struct Live {
    std::int64_t end_ns;
    std::uint64_t record_blocks;
    std::int64_t response_ns;
  };
  struct LiveLater {
    bool operator()(const Live& a, const Live& b) const {
      return a.end_ns > b.end_ns;
    }
  };
  struct BusyInterval {
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t window_start_ns() const {
    const std::int64_t min_ns = std::numeric_limits<std::int64_t>::min();
    if (now_.ns() < min_ns + window_.ns()) return min_ns;
    return now_.ns() - window_.ns();
  }

  void insert_interval(std::int64_t start_ns, std::int64_t end_ns) {
    auto it = std::lower_bound(merged_.begin(), merged_.end(), start_ns,
                               [](const BusyInterval& iv, std::int64_t v) {
                                 return iv.end_ns < v;
                               });
    auto last = it;
    while (last != merged_.end() && last->start_ns <= end_ns) {
      start_ns = std::min(start_ns, last->start_ns);
      end_ns = std::max(end_ns, last->end_ns);
      busy_ns_ -= last->end_ns - last->start_ns;
      ++last;
    }
    if (it == last) {
      merged_.insert(it, BusyInterval{start_ns, end_ns});
    } else {
      it->start_ns = start_ns;
      it->end_ns = end_ns;
      merged_.erase(it + 1, last);
    }
    busy_ns_ += end_ns - start_ns;
  }

  void evict() {
    const std::int64_t ws = window_start_ns();
    while (!live_.empty() && live_.top().end_ns <= ws) {
      --count_;
      blocks_ -= live_.top().record_blocks;
      response_sum_ns_ -= live_.top().response_ns;
      live_.pop();
    }
    while (!merged_.empty() && merged_.front().end_ns <= ws) {
      busy_ns_ -= merged_.front().end_ns - merged_.front().start_ns;
      merged_.erase(merged_.begin());
    }
    if (!merged_.empty() && merged_.front().start_ns < ws) {
      busy_ns_ -= ws - merged_.front().start_ns;
      merged_.front().start_ns = ws;
    }
  }

  SimDuration window_;
  SimTime now_{};
  bool any_ = false;
  std::priority_queue<Live, std::vector<Live>, LiveLater> live_;
  std::uint64_t count_ = 0;
  std::uint64_t blocks_ = 0;
  std::int64_t response_sum_ns_ = 0;
  std::vector<BusyInterval> merged_;
  std::int64_t busy_ns_ = 0;
};

}  // namespace bpsio::metrics::testing
