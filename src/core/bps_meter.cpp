#include "core/bps_meter.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "metrics/pipeline.hpp"
#include "trace/record_source.hpp"

namespace bpsio::core {

std::string BpsReading::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "BPS=%.6g (B=%llu blocks over T=%.6gs; %llu accesses, "
                "%zu processes, idle=%.6gs, avg concurrency=%.2f)",
                bps, static_cast<unsigned long long>(blocks), io_time_s,
                static_cast<unsigned long long>(accesses), processes,
                idle_time_s, avg_concurrency);
  return buf;
}

BpsReading BpsMeter::measure(const trace::RecordFilter& filter) const {
  metrics::BlocksConsumer acc;
  metrics::OverlapConsumer overlap(filter);
  auto source = trace::collector_source(collector_, filter);
  metrics::MetricPipeline pipeline;
  pipeline.attach(acc).attach(overlap);
  const Status run = pipeline.run(source);
  BPSIO_CHECK(run.ok(), "meter pipeline failed: %s",
              run.error().message.c_str());

  BpsReading r;
  r.blocks = block_size_ == kDefaultBlockSize
                 ? acc.blocks()
                 : bytes_to_blocks(acc.bytes(kDefaultBlockSize), block_size_);
  const SimDuration t = overlap.io_time();
  r.io_time_s = t.seconds();
  r.bps = t.ns() > 0 ? static_cast<double>(r.blocks) / t.seconds() : 0.0;
  r.accesses = acc.record_count();
  // Deliberately unfiltered: the process count reports the whole collection.
  r.processes = collector_.process_count();
  r.idle_time_s = overlap.idle_time().seconds();
  r.avg_concurrency = overlap.avg_concurrency();
  return r;
}

}  // namespace bpsio::core
