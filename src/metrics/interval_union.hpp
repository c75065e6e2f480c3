// The streaming union measure: Figure 3's merge rule over an ordered stream.
// Figure 3 merges each access, in start order, into the current interval;
// fed nondecreasing starts, that needs only the open interval and the total
// already closed. Every union in bpsio is this class, apart from the
// Figure-3 transcription kept as the reference (overlap_time_paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace bpsio::metrics {

/// The default close hook: none. IntervalUnion compiles it away.
struct NoCloseHook {
  void operator()(std::int64_t, std::int64_t) const {}
};

/// `OnClose(start_ns, end_ns)` is called with each disjoint union run, in
/// order, as the run closes (by a later disjoint add() or by finish()).
template <class OnClose = NoCloseHook>
class IntervalUnion {
 public:
  IntervalUnion() = default;
  explicit IntervalUnion(OnClose on_close) : on_close_(std::move(on_close)) {}

  /// Adds [start_ns, end_ns), end_ns >= start_ns, with starts
  /// nondecreasing across calls.
  void add(std::int64_t start_ns, std::int64_t end_ns) {
    if (start_ns <= end_ns_) {  // overlaps or touches: extend
      end_ns_ = std::max(end_ns_, end_ns);
      return;
    }
    close();
    start_ns_ = start_ns;
    end_ns_ = end_ns;
  }

  /// Closes the open interval; busy_ns() is then the union measure.
  void finish() {
    close();
    start_ns_ = end_ns_ = kNone;
  }

  std::int64_t busy_ns() const { return busy_ns_; }

 private:
  // No open interval: an empty one at the lowest time, which the first
  // add() closes (0 ns) or, starting at that same time, extends.
  static constexpr std::int64_t kNone = INT64_MIN;

  void close() {
    busy_ns_ += end_ns_ - start_ns_;
    if constexpr (!std::is_same_v<OnClose, NoCloseHook>) {
      if (start_ns_ != kNone) on_close_(start_ns_, end_ns_);
    }
  }

  std::int64_t start_ns_ = kNone;
  std::int64_t end_ns_ = kNone;
  std::int64_t busy_ns_ = 0;
  [[no_unique_address]] OnClose on_close_;
};

}  // namespace bpsio::metrics
