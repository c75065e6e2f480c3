#include "metrics/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "common/format.hpp"

namespace bpsio::metrics {

// ---------------------------------------------------------------------------
// Simple accumulators
// ---------------------------------------------------------------------------

void BlocksConsumer::consume(std::span<const trace::IoRecord> chunk) {
  records_ += chunk.size();
  for (const auto& r : chunk) blocks_ += r.blocks;
}

void ArptConsumer::consume(std::span<const trace::IoRecord> chunk) {
  count_ += chunk.size();
  for (const auto& r : chunk) {
    total_ns_ += static_cast<TotalNs>(r.end_ns - r.start_ns);
  }
}

double ArptConsumer::arpt_s() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(total_ns_) / static_cast<double>(count_) * 1e-9;
}

void ProcessCountConsumer::consume(std::span<const trace::IoRecord> chunk) {
  for (const auto& r : chunk) pids_.insert(r.pid);
}

// ---------------------------------------------------------------------------
// PeakConcurrency
// ---------------------------------------------------------------------------

void PeakConcurrency::retire(std::int64_t start) {
  ++retirements_;
  while (!ends_.empty() && ends_.top() <= start) ends_.pop();
  std::int64_t* const buffered = buffered_.data();
  const std::size_t size = buffered_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const std::int64_t end = buffered[i];
    buffered[kept] = end;
    kept += static_cast<std::size_t>(end > start);
  }
  const std::size_t added = size - kept_;
  buffered_.resize(kept);
  if (kept > kSpillFactor * added) {
    ++spills_;
    for (const std::int64_t end : buffered_) ends_.push(end);
    buffered_.clear();
  }
  kept_ = buffered_.size();
}

// ---------------------------------------------------------------------------
// OverlapConsumer
// ---------------------------------------------------------------------------

void OverlapConsumer::consume(std::span<const trace::IoRecord> chunk) {
  for (const auto& r : chunk) {
    // col_time()'s window clamp: time inside the window only. Clamping a
    // nondecreasing start sequence with max() keeps it nondecreasing, so
    // the union and the sweep see ordered starts.
    std::int64_t s = r.start_ns;
    std::int64_t e = r.end_ns;
    if (window_start_) s = std::max(s, *window_start_);
    if (window_end_) e = std::min(e, *window_end_);
    if (e < s) continue;  // entirely outside the window
    if (!any_interval_) {
      any_interval_ = true;
      lo_ns_ = s;  // ordered starts: the first is the lowest
      hi_ns_ = e;
    }
    hi_ns_ = std::max(hi_ns_, e);
    if (e > s) {
      sum_len_ns_ += e - s;
      union_.add(s, e);
      peak_.add(s, e);
    }
  }
}

void OverlapConsumer::finish() { union_.finish(); }

double OverlapConsumer::avg_concurrency() const {
  const std::int64_t busy_ns = union_.busy_ns();
  if (busy_ns <= 0) return 0.0;
  return static_cast<double>(sum_len_ns_) / static_cast<double>(busy_ns);
}

SimDuration OverlapConsumer::idle_time() const {
  if (!any_interval_) return SimDuration::zero();
  return SimDuration(hi_ns_ - lo_ns_) - io_time();
}

// ---------------------------------------------------------------------------
// ConcurrencyProfileConsumer
// ---------------------------------------------------------------------------

void ConcurrencyProfileConsumer::advance(std::int64_t t) {
  const std::size_t level = ends_.size();
  if (level > 0 && t > prev_ns_) {
    if (at_level_.size() < level) at_level_.resize(level, 0.0);
    const double span = static_cast<double>(t - prev_ns_) * 1e-9;
    at_level_[level - 1] += span;
    busy_total_ += span;
  }
  prev_ns_ = t;
}

void ConcurrencyProfileConsumer::consume(std::span<const trace::IoRecord> chunk) {
  for (const auto& r : chunk) {
    std::int64_t s = r.start_ns;
    std::int64_t e = r.end_ns;
    if (window_start_) s = std::max(s, *window_start_);
    if (window_end_) e = std::min(e, *window_end_);
    if (e <= s) continue;  // zero measure contributes no time at any level
    // Ends at or before this start retire first, in time order.
    while (!ends_.empty() && ends_.top() <= s) {
      advance(ends_.top());
      ends_.pop();
    }
    advance(s);
    ends_.push(e);
  }
}

void ConcurrencyProfileConsumer::finish() {
  while (!ends_.empty()) {
    advance(ends_.top());
    ends_.pop();
  }
  if (busy_total_ > 0) {
    for (double& v : at_level_) v /= busy_total_;
  }
}

// ---------------------------------------------------------------------------
// TimelineConsumer
// ---------------------------------------------------------------------------

TimelineConsumer::TimelineConsumer(SimDuration window,
                                   std::optional<std::int64_t> lo,
                                   std::optional<std::int64_t> hi)
    : window_ns_(window.ns()),
      reach_limit_(std::min<std::uint64_t>(
                       static_cast<std::uint64_t>(window.ns()),
                       std::uint64_t{1} << 43) *
                   kMaxTimelineWindows),
      lo_override_(lo),
      hi_override_(hi) {
  BPSIO_CHECK(window_ns_ > 0, "timeline window must be positive, got %lldns",
              static_cast<long long>(window_ns_));
  timeline_.window = window;
}

void TimelineConsumer::refuse(std::uint64_t reach) {
  fitting_window_ns_ =
      static_cast<std::int64_t>(reach / kMaxTimelineWindows) + 1;
  status_ = Status{
      Errc::out_of_range,
      "the timeline needs " +
          std::to_string(reach / static_cast<std::uint64_t>(window_ns_) + 1) +
          " windows of " + fmt_ms(window_ns_) + " ms, over the limit of " +
          std::to_string(kMaxTimelineWindows)};
}

void TimelineConsumer::ensure_windows(std::size_t count) {
  if (timeline_.windows.size() < count) {
    timeline_.windows.resize(count);
    unions_.resize(count);
  }
}

void TimelineConsumer::consume(std::span<const trace::IoRecord> chunk) {
  if (!status_.ok()) return;
  const std::int64_t hi_clamp =
      hi_override_ ? *hi_override_ : std::numeric_limits<std::int64_t>::max();
  for (const auto& r : chunk) {
    if (!any_) {
      any_ = true;
      // Ordered stream: the first record's start is the minimum start, so
      // this equals the batch min-scan default.
      lo_ = lo_override_ ? *lo_override_ : r.start_ns;
      max_end_ = r.end_ns;
    } else {
      max_end_ = std::max(max_end_, r.end_ns);
    }
    // Only explicit bounds can actually clamp: the span-default lo/hi
    // enclose every record by construction.
    const std::int64_t r_start = std::max(r.start_ns, lo_);
    const std::int64_t r_end = std::min(r.end_ns, hi_clamp);
    if (r_end < r_start) continue;
    // The record's last window holds its last ns (its start when it has
    // none), `reach` ns past lo_.
    const std::int64_t last_ns = r_end == r_start ? r_start : r_end - 1;
    const std::uint64_t reach =
        static_cast<std::uint64_t>(last_ns) - static_cast<std::uint64_t>(lo_);
    if (reach >= reach_limit_) {
      refuse(reach);
      return;
    }
    const std::int64_t duration = r.end_ns - r.start_ns;
    const auto first_win =
        static_cast<std::size_t>((r_start - lo_) / window_ns_);
    const auto last_win = static_cast<std::size_t>(
        reach / static_cast<std::uint64_t>(window_ns_));
    ensure_windows(last_win + 1);
    for (std::size_t i = first_win; i <= last_win; ++i) {
      TimelineWindow& win = timeline_.windows[i];
      const std::int64_t win_start =
          lo_ + static_cast<std::int64_t>(i) * window_ns_;
      // The final window's end is clipped to hi only at finish(); using the
      // unclipped end here is exact because r_end never exceeds hi.
      const std::int64_t s = std::max(r_start, win_start);
      const std::int64_t e = std::min(r_end, win_start + window_ns_);
      const std::int64_t inside = std::max<std::int64_t>(e - s, 0);
      // Pro-rate blocks by the share of the access's duration inside this
      // window. Instantaneous accesses land whole in their start window.
      const double share =
          duration > 0
              ? static_cast<double>(inside) / static_cast<double>(duration)
              : (i == first_win ? 1.0 : 0.0);
      win.blocks += static_cast<double>(r.blocks) * share;
      ++win.accesses_active;
      if (inside > 0) {
        // Per-window clipped starts arrive in nondecreasing order, so each
        // window is one streaming union.
        WindowUnion& u = unions_[i];
        u.busy.add(s, e);
        u.sum_len_ns += e - s;
      }
    }
  }
}

void TimelineConsumer::finish() {
  if (!any_) return;
  const std::int64_t hi = hi_override_ ? *hi_override_ : max_end_;
  if (hi <= lo_) {
    timeline_.windows.clear();
    unions_.clear();
    return;
  }
  // The batch builder sizes the window array from the span up front and
  // skips contributions past it; streaming discovers the span last, so drop
  // any window past it now (only a zero-length record exactly at hi can
  // have created one).
  const auto n_windows =
      static_cast<std::size_t>((hi - lo_ + window_ns_ - 1) / window_ns_);
  if (timeline_.windows.size() > n_windows) {
    timeline_.windows.resize(n_windows);
    unions_.resize(n_windows);
  }
  for (std::size_t i = 0; i < timeline_.windows.size(); ++i) {
    TimelineWindow& win = timeline_.windows[i];
    win.start_ns = lo_ + static_cast<std::int64_t>(i) * window_ns_;
    win.end_ns = std::min<std::int64_t>(win.start_ns + window_ns_, hi);
    WindowUnion& u = unions_[i];
    u.busy.finish();
    const std::int64_t busy_ns = u.busy.busy_ns();
    win.io_time_s = SimDuration(busy_ns).seconds();
    const double len = static_cast<double>(win.end_ns - win.start_ns) * 1e-9;
    win.busy_fraction = len > 0 ? win.io_time_s / len : 0.0;
    win.bps = win.io_time_s > 0 ? win.blocks / win.io_time_s : 0.0;
    win.avg_concurrency =
        busy_ns > 0 ? static_cast<double>(u.sum_len_ns) /
                          static_cast<double>(busy_ns)
                    : 0.0;
  }
}

// ---------------------------------------------------------------------------
// MetricPipeline
// ---------------------------------------------------------------------------

MetricPipeline& MetricPipeline::attach(MetricConsumer& consumer) {
  consumers_.push_back(&consumer);
  return *this;
}

Status MetricPipeline::run(trace::RecordSource& source) {
  trace::OrderCheck order;
  for (;;) {
    const auto chunk = source.next_chunk();
    if (chunk.empty()) break;
    if (const Status checked = order.check(chunk); !checked.ok()) {
      return Status{Errc::invalid_argument,
                    "record stream " + checked.error().message +
                        " — sort the source or use collector_source()"};
    }
    for (MetricConsumer* c : consumers_) {
      c->consume(chunk);
      if (Status s = c->status(); !s.ok()) return s;
    }
    processed_ += chunk.size();
  }
  if (const Status s = source.status(); !s.ok()) return s;
  for (MetricConsumer* c : consumers_) c->finish();
  return {};
}

// ---------------------------------------------------------------------------
// measure_stream
// ---------------------------------------------------------------------------

Result<MetricSample> measure_stream(trace::RecordSource& source,
                                    Bytes moved_bytes, SimDuration exec_time,
                                    Bytes block_size) {
  BlocksConsumer blocks;
  OverlapConsumer overlap;
  ArptConsumer arpt_acc;
  MetricPipeline pipeline;
  pipeline.attach(blocks).attach(overlap).attach(arpt_acc);
  if (const Status run = pipeline.run(source); !run.ok()) return run.error();

  MetricSample s;
  s.exec_time_s = exec_time.seconds();
  s.access_count = blocks.record_count();
  s.app_blocks = blocks.blocks();
  s.app_bytes = blocks.bytes();
  s.moved_bytes = moved_bytes;
  const SimDuration t_union = overlap.io_time();
  s.io_time_s = t_union.seconds();
  s.iops = iops(static_cast<std::size_t>(s.access_count), exec_time);
  s.bandwidth_bps = bandwidth(moved_bytes, exec_time);
  s.arpt_s = arpt_acc.arpt_s();
  if (t_union.ns() > 0) {
    // Records store blocks in the native 512-byte unit; rescale via bytes
    // when a different block size is requested (same rule as bps()).
    const std::uint64_t scaled_blocks =
        block_size == kDefaultBlockSize
            ? s.app_blocks
            : bytes_to_blocks(blocks_to_bytes(s.app_blocks, kDefaultBlockSize),
                              block_size);
    s.bps = static_cast<double>(scaled_blocks) / t_union.seconds();
  }
  s.peak_concurrency = static_cast<double>(overlap.peak_concurrency());
  return s;
}

}  // namespace bpsio::metrics
