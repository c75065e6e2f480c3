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
  // One unfiltered pass: the filtered accumulators sit behind consumer-side
  // filters because the process count is deliberately unfiltered (it reports
  // the whole collection, matching TraceCollector::process_count()).
  metrics::BlocksConsumer acc;
  metrics::FilteredConsumer filtered_acc(filter, acc);
  metrics::OverlapConsumer overlap(filter);
  metrics::FilteredConsumer filtered_overlap(filter, overlap);
  metrics::ProcessCountConsumer processes;
  auto source = trace::collector_source(collector_);
  metrics::MetricPipeline pipeline;
  pipeline.attach(filtered_acc).attach(filtered_overlap).attach(processes);
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
  r.processes = processes.process_count();
  r.idle_time_s = overlap.idle_time().seconds();
  r.avg_concurrency = overlap.avg_concurrency();
  return r;
}

}  // namespace bpsio::core
