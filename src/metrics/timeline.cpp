#include "metrics/timeline.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "metrics/pipeline.hpp"
#include "trace/record_source.hpp"

namespace bpsio::metrics {

double Timeline::peak_bps() const {
  double peak = 0;
  for (const auto& w : windows) peak = std::max(peak, w.bps);
  return peak;
}

double Timeline::idle_window_fraction() const {
  if (windows.empty()) return 0.0;
  std::size_t idle = 0;
  for (const auto& w : windows) {
    if (w.io_time_s == 0.0) ++idle;
  }
  return static_cast<double>(idle) / static_cast<double>(windows.size());
}

std::string Timeline::to_string() const {
  std::string out;
  char buf[192];
  for (const auto& w : windows) {
    const int bar_len = static_cast<int>(w.busy_fraction * 20.0 + 0.5);
    std::string bar(static_cast<std::size_t>(std::clamp(bar_len, 0, 20)), '#');
    bar.resize(20, '.');
    std::snprintf(buf, sizeof buf,
                  "[%8.3fs, %8.3fs) |%s| bps=%10.1f busy=%5.1f%% conc=%.2f\n",
                  static_cast<double>(w.start_ns) * 1e-9,
                  static_cast<double>(w.end_ns) * 1e-9, bar.c_str(), w.bps,
                  w.busy_fraction * 100.0, w.avg_concurrency);
    out += buf;
  }
  return out;
}

Result<Timeline> build_timeline(const trace::TraceCollector& collector,
                                SimDuration window,
                                const trace::RecordFilter& filter) {
  BPSIO_CHECK(window.ns() > 0, "timeline window must be positive, got %lldns",
              static_cast<long long>(window.ns()));
  auto source = trace::collector_source(collector, filter);
  TimelineConsumer timeline(window, filter.window_start_ns,
                            filter.window_end_ns);
  MetricPipeline pipeline;
  pipeline.attach(timeline);
  if (const Status run = pipeline.run(source); !run.ok()) return run.error();
  return timeline.take();
}

std::vector<double> concurrency_profile(const trace::TraceCollector& collector,
                                        const trace::RecordFilter& filter) {
  auto source = trace::collector_source(collector, filter);
  ConcurrencyProfileConsumer profile(filter);
  MetricPipeline pipeline;
  pipeline.attach(profile);
  const Status run = pipeline.run(source);
  BPSIO_CHECK(run.ok(), "concurrency pipeline failed: %s",
              run.error().message.c_str());
  return profile.profile();
}

}  // namespace bpsio::metrics
