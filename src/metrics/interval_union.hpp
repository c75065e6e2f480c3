// The streaming union measure: Figure 3's merge rule over an ordered stream.
// Figure 3 merges each access, in start order, into the current interval;
// fed nondecreasing starts, that needs only the open interval and the total
// already closed. Every streaming union in bpsio is this class.
#pragma once

#include <algorithm>
#include <cstdint>

namespace bpsio::metrics {

class IntervalUnion {
 public:
  /// Adds [start_ns, end_ns), end_ns >= start_ns, with starts
  /// nondecreasing across calls.
  void add(std::int64_t start_ns, std::int64_t end_ns) {
    if (start_ns <= end_ns_) {  // overlaps or touches: extend
      end_ns_ = std::max(end_ns_, end_ns);
      return;
    }
    busy_ns_ += end_ns_ - start_ns_;
    start_ns_ = start_ns;
    end_ns_ = end_ns;
  }

  /// Closes the open interval; busy_ns() is then the union measure.
  void finish() {
    busy_ns_ += end_ns_ - start_ns_;
    start_ns_ = end_ns_ = kNone;
  }

  std::int64_t busy_ns() const { return busy_ns_; }

 private:
  // No open interval: an empty one at the lowest time, which the first
  // add() closes (0 ns) or, starting at that same time, extends.
  static constexpr std::int64_t kNone = INT64_MIN;

  std::int64_t start_ns_ = kNone;
  std::int64_t end_ns_ = kNone;
  std::int64_t busy_ns_ = 0;
};

}  // namespace bpsio::metrics
