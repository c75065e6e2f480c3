#include "metrics/calculators.hpp"

#include <cstdio>
#include <initializer_list>

#include "common/check.hpp"
#include "metrics/pipeline.hpp"
#include "trace/record_source.hpp"

namespace bpsio::metrics {

namespace {

/// Drives `consumers` over the collector's records that `filter` selects,
/// in (start, end) order.
void run_filtered(const trace::TraceCollector& collector,
                  const trace::RecordFilter& filter,
                  std::initializer_list<MetricConsumer*> consumers) {
  auto source = trace::collector_source(collector, filter);
  MetricPipeline pipeline;
  for (MetricConsumer* c : consumers) pipeline.attach(*c);
  const Status run = pipeline.run(source);
  BPSIO_CHECK(run.ok(), "metric pipeline failed: %s",
              run.error().message.c_str());
}

}  // namespace

SimDuration overlapped_io_time(const trace::TraceCollector& collector,
                               const trace::RecordFilter& filter) {
  OverlapConsumer overlap(filter);
  run_filtered(collector, filter, {&overlap});
  return overlap.io_time();
}

double bps(const trace::TraceCollector& collector, Bytes block_size,
           const trace::RecordFilter& filter) {
  BlocksConsumer acc;
  OverlapConsumer overlap(filter);
  run_filtered(collector, filter, {&acc, &overlap});
  const SimDuration t = overlap.io_time();
  if (t.ns() <= 0) return 0.0;
  // Records store blocks in the collector's native block unit (512 B). If a
  // different block size is requested, rescale via bytes.
  const std::uint64_t blocks =
      block_size == kDefaultBlockSize
          ? acc.blocks()
          : bytes_to_blocks(acc.bytes(kDefaultBlockSize), block_size);
  return static_cast<double>(blocks) / t.seconds();
}

double iops(std::size_t access_count, SimDuration period) {
  if (period.ns() <= 0) return 0.0;
  return static_cast<double>(access_count) / period.seconds();
}

double iops(const trace::TraceCollector& collector, SimDuration period,
            const trace::RecordFilter& filter) {
  BlocksConsumer acc;
  run_filtered(collector, filter, {&acc});
  return iops(static_cast<std::size_t>(acc.record_count()), period);
}

double bandwidth(Bytes moved_bytes, SimDuration period) {
  if (period.ns() <= 0) return 0.0;
  return static_cast<double>(moved_bytes) / period.seconds();
}

double arpt(const trace::TraceCollector& collector,
            const trace::RecordFilter& filter) {
  ArptConsumer acc;
  run_filtered(collector, filter, {&acc});
  return acc.arpt_s();
}

MetricSample measure_run(const trace::TraceCollector& collector,
                         Bytes moved_bytes, SimDuration exec_time,
                         Bytes block_size) {
  auto source = trace::collector_source(collector);
  auto sample = measure_stream(source, moved_bytes, exec_time, block_size);
  BPSIO_CHECK(sample.ok(), "measure pipeline failed: %s",
              sample.error().message.c_str());
  return *sample;
}

std::string MetricSample::to_string() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "exec=%.4gs iops=%.4g bw=%.4gMB/s arpt=%.4gms bps=%.4g "
                "(B=%llu blocks, T=%.4gs, moved=%.4gMiB, ops=%llu)",
                exec_time_s, iops, bandwidth_bps / 1e6, arpt_s * 1e3, bps,
                static_cast<unsigned long long>(app_blocks), io_time_s,
                static_cast<double>(moved_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(access_count));
  return buf;
}

std::string metric_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::iops: return "IOPS";
    case MetricKind::bandwidth: return "BW";
    case MetricKind::arpt: return "ARPT";
    case MetricKind::bps: return "BPS";
  }
  return "?";
}

stats::Direction expected_direction(MetricKind kind) {
  // Table 1: IOPS negative, Bandwidth negative, ARPT positive, BPS negative.
  switch (kind) {
    case MetricKind::iops: return stats::Direction::negative;
    case MetricKind::bandwidth: return stats::Direction::negative;
    case MetricKind::arpt: return stats::Direction::positive;
    case MetricKind::bps: return stats::Direction::negative;
  }
  return stats::Direction::negative;
}

double metric_value(const MetricSample& sample, MetricKind kind) {
  switch (kind) {
    case MetricKind::iops: return sample.iops;
    case MetricKind::bandwidth: return sample.bandwidth_bps;
    case MetricKind::arpt: return sample.arpt_s;
    case MetricKind::bps: return sample.bps;
  }
  return 0.0;
}

}  // namespace bpsio::metrics
