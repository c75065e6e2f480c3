// Differential tests: the streaming pipeline must be bit-identical to the
// batch metric path — same B, T, BPS, ARPT (and timeline/profile) whether
// records arrive from memory, a spilled trace file, or a k-way merge — and
// its T must equal the Figure-3 reference, overlap_time_paper().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bps_meter.hpp"
#include "metrics/calculators.hpp"
#include "metrics/overlap.hpp"
#include "metrics/pipeline.hpp"
#include "metrics/timeline.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/spill_writer.hpp"
#include "trace/trace_collector.hpp"
#include "interval_shapes.hpp"
#include "merge_oracle.hpp"
#include "overlap_oracle.hpp"

namespace bpsio {
namespace {

using trace::IoRecord;
using trace::make_record;

// Deterministic messy workload: overlapping bursts from several pids, gaps,
// duplicate (start, end) keys, nested and zero-length intervals, a failure.
std::vector<IoRecord> messy_records() {
  std::vector<IoRecord> records;
  std::int64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    const auto pid = static_cast<std::uint32_t>(i % 4 + 1);
    const std::int64_t len = 40 + (i * 37) % 300;
    records.push_back(make_record(pid, static_cast<std::uint64_t>(i % 9 + 1),
                                  SimTime(t), SimTime(t + len)));
    if (i % 5 == 0) {  // nested interval sharing the start
      records.push_back(make_record(pid, 2, SimTime(t), SimTime(t + len / 2)));
    }
    if (i % 17 == 0) {  // zero-length access
      records.push_back(make_record(pid, 1, SimTime(t + 5), SimTime(t + 5)));
    }
    if (i % 23 == 0) {  // failed access
      records.push_back(make_record(pid, 3, SimTime(t + 1), SimTime(t + 30),
                                    trace::IoOpKind::write, trace::kIoFailed));
    }
    // Bursty clock: overlap within a burst, a gap between bursts.
    t += (i % 10 == 9) ? 900 : 25;
  }
  return records;
}

trace::TraceCollector messy_collector() {
  trace::TraceCollector c;
  for (const auto& r : messy_records()) c.add(r);
  return c;
}

void expect_identical(const metrics::MetricSample& a,
                      const metrics::MetricSample& b) {
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.access_count, b.access_count);
  EXPECT_EQ(a.app_blocks, b.app_blocks);
  EXPECT_EQ(a.app_bytes, b.app_bytes);
  EXPECT_EQ(a.moved_bytes, b.moved_bytes);
  EXPECT_DOUBLE_EQ(a.io_time_s, b.io_time_s);
  EXPECT_DOUBLE_EQ(a.iops, b.iops);
  EXPECT_DOUBLE_EQ(a.bandwidth_bps, b.bandwidth_bps);
  EXPECT_DOUBLE_EQ(a.arpt_s, b.arpt_s);
  EXPECT_DOUBLE_EQ(a.bps, b.bps);
  EXPECT_DOUBLE_EQ(a.peak_concurrency, b.peak_concurrency);
}

TEST(MetricPipeline, StreamingTEqualsBothBatchOverlapAlgorithms) {
  const auto c = messy_collector();
  auto source = trace::collector_source(c);
  metrics::OverlapConsumer overlap;
  metrics::MetricPipeline pipeline;
  pipeline.attach(overlap);
  ASSERT_TRUE(pipeline.run(source).ok());
  const auto col_time = c.col_time();
  EXPECT_EQ(overlap.io_time().ns(), metrics::overlap_time_paper(col_time).ns());
  EXPECT_EQ(overlap.io_time().ns(),
            metrics::overlap_time_merged(col_time).ns());
  EXPECT_EQ(overlap.peak_concurrency(), metrics::peak_concurrency(col_time));
  EXPECT_EQ(overlap.idle_time().ns(), metrics::idle_time(col_time).ns());
  EXPECT_DOUBLE_EQ(overlap.avg_concurrency(),
                   metrics::average_concurrency(col_time));
}

TEST(MetricPipeline, StreamingBEqualsBatchCounts) {
  const auto c = messy_collector();
  auto source = trace::collector_source(c);
  metrics::BlocksConsumer blocks;
  metrics::MetricPipeline pipeline;
  pipeline.attach(blocks);
  ASSERT_TRUE(pipeline.run(source).ok());
  EXPECT_EQ(blocks.record_count(), c.record_count());
  EXPECT_EQ(blocks.blocks(), c.total_blocks());
  EXPECT_EQ(blocks.bytes(), blocks_to_bytes(c.total_blocks()));
  EXPECT_EQ(pipeline.records_processed(), c.record_count());
}

TEST(MetricPipeline, StreamingArptEqualsExactMean) {
  const auto c = messy_collector();
  // Reference: exact integer-ns total, single division.
  std::uint64_t total_ns = 0;
  std::uint64_t n = 0;
  auto source = trace::collector_source(c);
  metrics::ArptConsumer arpt_acc;
  metrics::MetricPipeline pipeline;
  pipeline.attach(arpt_acc);
  ASSERT_TRUE(pipeline.run(source).ok());
  for (const auto& r : c.records()) {
    total_ns += static_cast<std::uint64_t>(r.end_ns - r.start_ns);
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_DOUBLE_EQ(arpt_acc.arpt_s(), static_cast<double>(total_ns) /
                                          static_cast<double>(n) * 1e-9);
  EXPECT_DOUBLE_EQ(metrics::arpt(c), arpt_acc.arpt_s());
}

TEST(MetricPipeline, SpilledStreamIsBitIdenticalToInMemory) {
  const auto c = messy_collector();
  const Bytes moved = 64 * kMiB;
  const SimDuration exec = SimDuration(5'000'000'000);

  auto memory = trace::collector_source(c);
  const auto from_memory = metrics::measure_stream(memory, moved, exec);
  ASSERT_TRUE(from_memory.ok());

  // Spill the canonical-order stream to disk, then measure the file.
  const std::string path = "/tmp/bpsio_pipeline_spill.bpstrace";
  {
    trace::SpillWriter writer(path, /*batch_records=*/64);
    auto snapshot = trace::collector_source(c);
    for (auto chunk = snapshot.next_chunk(); !chunk.empty();
         chunk = snapshot.next_chunk()) {
      for (const auto& r : chunk) writer.append(r);
    }
    ASSERT_TRUE(writer.close().ok());
  }
  trace::MappedTraceSource spilled(path, /*chunk_records=*/33);
  const auto from_disk = metrics::measure_stream(spilled, moved, exec);
  ASSERT_TRUE(from_disk.ok());
  expect_identical(*from_memory, *from_disk);
  std::remove(path.c_str());
}

TEST(MetricPipeline, MergedStreamIsBitIdenticalToMergeOracle) {
  // Three applications traced separately, merged on the fly vs in memory.
  std::vector<std::vector<IoRecord>> traces(3);
  for (std::uint32_t app = 0; app < 3; ++app) {
    std::int64_t t = static_cast<std::int64_t>(app) * 13;
    for (int i = 0; i < 80; ++i) {
      const std::int64_t len = 30 + (i * (7 + app)) % 160;
      traces[app].push_back(make_record(app + 1, i % 5 + 1, SimTime(t),
                                        SimTime(t + len)));
      t += 20 + (i % 6);
    }
  }
  const Bytes moved = 16 * kMiB;
  const SimDuration exec = SimDuration(2'000'000'000);

  const auto merged_batch = trace::merge_oracle(traces, trace::MergeOptions{});
  auto batch_source = trace::VectorSource::view(merged_batch);
  const auto from_batch = metrics::measure_stream(batch_source, moved, exec);
  ASSERT_TRUE(from_batch.ok());

  std::vector<std::unique_ptr<trace::RecordSource>> children;
  for (const auto& t : traces) {
    children.push_back(std::make_unique<trace::VectorSource>(
        trace::VectorSource::sorted(t)));
  }
  trace::MergedSource streaming(std::move(children), trace::MergeOptions{});
  const auto from_stream = metrics::measure_stream(streaming, moved, exec);
  ASSERT_TRUE(from_stream.ok());
  expect_identical(*from_batch, *from_stream);
}

TEST(MetricPipeline, MeasureRunAndMeasureStreamAgree) {
  const auto c = messy_collector();
  const Bytes moved = 8 * kMiB;
  const SimDuration exec = SimDuration(1'000'000'000);
  const auto batch = metrics::measure_run(c, moved, exec);
  // T and BPS against the Figure-3 reference.
  const SimDuration t_paper = metrics::overlap_time_paper(c.col_time());
  ASSERT_GT(t_paper.ns(), 0);
  EXPECT_EQ(batch.app_blocks, c.total_blocks());
  EXPECT_EQ(batch.io_time_s, t_paper.seconds());
  EXPECT_EQ(batch.bps,
            static_cast<double>(c.total_blocks()) / t_paper.seconds());
  auto source = trace::collector_source(c);
  const auto stream = metrics::measure_stream(source, moved, exec);
  ASSERT_TRUE(stream.ok());
  expect_identical(batch, *stream);
}

TEST(MetricPipeline, WindowedBpsMatchesPaperReference) {
  const auto c = messy_collector();
  trace::RecordFilter f;
  f.window_start_ns = 500;
  f.window_end_ns = 4000;
  f.include_failed = false;
  const double paper =
      static_cast<double>(c.total_blocks(f)) /
      metrics::overlap_time_paper(c.col_time(f)).seconds();
  EXPECT_GT(paper, 0.0);
  EXPECT_DOUBLE_EQ(metrics::bps(c, kDefaultBlockSize, f), paper);

  // The same computation assembled by hand from streaming parts.
  auto source = trace::collector_source(c, f);
  metrics::BlocksConsumer blocks;
  metrics::OverlapConsumer overlap(f);
  metrics::MetricPipeline pipeline;
  pipeline.attach(blocks).attach(overlap);
  ASSERT_TRUE(pipeline.run(source).ok());
  ASSERT_GT(overlap.io_time().ns(), 0);
  EXPECT_DOUBLE_EQ(static_cast<double>(blocks.blocks()) /
                       overlap.io_time().seconds(),
                   paper);
}

TEST(MetricPipeline, BpsMeterReadingMatchesBatchFormulas) {
  const auto c = messy_collector();
  trace::RecordFilter f;
  f.pid = 2;
  core::BpsMeter meter;
  meter.gather(messy_records());
  const auto reading = meter.measure(f);
  EXPECT_EQ(reading.blocks, c.total_blocks(f));
  const auto col_time = c.col_time(f);
  EXPECT_DOUBLE_EQ(reading.io_time_s,
                   metrics::overlap_time_paper(col_time).seconds());
  EXPECT_DOUBLE_EQ(reading.bps,
                   static_cast<double>(c.total_blocks(f)) /
                       metrics::overlap_time_paper(col_time).seconds());
  EXPECT_EQ(reading.processes, c.process_count());
  EXPECT_DOUBLE_EQ(reading.idle_time_s,
                   metrics::idle_time(col_time).seconds());
  EXPECT_DOUBLE_EQ(reading.avg_concurrency,
                   metrics::average_concurrency(col_time));
}

TEST(MetricPipeline, TimelineFromSpilledStreamMatchesBatchBuilder) {
  const auto c = messy_collector();
  const auto window = SimDuration(1'000'000);
  const auto batch = *metrics::build_timeline(c, window);

  const std::string path = "/tmp/bpsio_pipeline_timeline.bpstrace";
  {
    trace::SpillWriter writer(path, /*batch_records=*/64);
    auto snapshot = trace::collector_source(c);
    for (auto chunk = snapshot.next_chunk(); !chunk.empty();
         chunk = snapshot.next_chunk()) {
      for (const auto& r : chunk) writer.append(r);
    }
    ASSERT_TRUE(writer.close().ok());
  }
  trace::MappedTraceSource spilled(path, /*chunk_records=*/17);
  metrics::TimelineConsumer consumer(window);
  metrics::MetricPipeline pipeline;
  pipeline.attach(consumer);
  ASSERT_TRUE(pipeline.run(spilled).ok());
  const auto streamed = consumer.take();

  ASSERT_EQ(streamed.windows.size(), batch.windows.size());
  for (std::size_t i = 0; i < batch.windows.size(); ++i) {
    const auto& a = batch.windows[i];
    const auto& b = streamed.windows[i];
    EXPECT_EQ(a.start_ns, b.start_ns);
    EXPECT_EQ(a.end_ns, b.end_ns);
    EXPECT_DOUBLE_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.accesses_active, b.accesses_active);
    EXPECT_DOUBLE_EQ(a.io_time_s, b.io_time_s);
    EXPECT_DOUBLE_EQ(a.busy_fraction, b.busy_fraction);
    EXPECT_DOUBLE_EQ(a.bps, b.bps);
    EXPECT_DOUBLE_EQ(a.avg_concurrency, b.avg_concurrency);
  }
  std::remove(path.c_str());
}

TEST(MetricPipeline, ConcurrencyProfileMatchesStreamedSweep) {
  const auto c = messy_collector();
  const auto batch = metrics::concurrency_profile(c);
  auto source = trace::collector_source(c);
  metrics::ConcurrencyProfileConsumer consumer;
  metrics::MetricPipeline pipeline;
  pipeline.attach(consumer);
  ASSERT_TRUE(pipeline.run(source).ok());
  ASSERT_EQ(consumer.profile().size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(consumer.profile()[i], batch[i]) << "level " << i + 1;
  }
}

// Serves ordered records in chunks of seeded random size (1 to 37), so
// chunk boundaries fall everywhere, runs of equal keys included.
class RandomChunkSource final : public trace::RecordSource {
 public:
  RandomChunkSource(std::vector<IoRecord> records, std::uint64_t seed)
      : records_(std::move(records)), rng_(seed) {}

  std::span<const IoRecord> next_chunk() override {
    if (pos_ >= records_.size()) return {};
    const std::size_t n = std::min<std::size_t>(1 + rng_.next() % 37,
                                                records_.size() - pos_);
    const std::span<const IoRecord> chunk(records_.data() + pos_, n);
    pos_ += n;
    return chunk;
  }

 private:
  std::vector<IoRecord> records_;
  Rng rng_;
  std::size_t pos_ = 0;
};

/// The records `filter` selects, in canonical (start, end) order.
std::vector<IoRecord> ordered_records(const trace::TraceCollector& c,
                                      const trace::RecordFilter& filter) {
  std::vector<IoRecord> out;
  auto source = trace::collector_source(c, filter);
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

/// A window's overlapped I/O time by the O(n^2) reference: every interval
/// clipped to [window_start, window_end).
SimDuration window_union_bruteforce(
    const std::vector<trace::TimeInterval>& col_time,
    std::int64_t window_start, std::int64_t window_end) {
  std::vector<trace::TimeInterval> clipped;
  for (const auto& iv : col_time) {
    const std::int64_t s = std::max(iv.start_ns, window_start);
    const std::int64_t e = std::min(iv.end_ns, window_end);
    if (s < e) clipped.push_back({s, e});
  }
  return metrics::overlap_time_bruteforce(clipped);
}

TEST(MetricPipelineProperty, StreamingConsumersMatchBatchOracles) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    trace::TraceCollector c;
    c.gather(shaped_records(seed, 20 + (seed * 37) % 180, {1, 2, 3, 4}));
    const auto all = c.col_time();
    std::int64_t lo = all.front().start_ns;
    std::int64_t hi = all.front().end_ns;
    for (const auto& iv : all) {
      lo = std::min(lo, iv.start_ns);
      hi = std::max(hi, iv.end_ns);
    }
    // A window cut inside the span; odd seeds also drop failed accesses.
    trace::RecordFilter windowed;
    windowed.window_start_ns = lo + (hi - lo) / 5;
    windowed.window_end_ns = hi - (hi - lo) / 4;
    windowed.include_failed = seed % 2 == 0;
    const SimDuration window(50 + static_cast<std::int64_t>(seed % 7) * 97);

    for (const trace::RecordFilter& f : {trace::RecordFilter{}, windowed}) {
      SCOPED_TRACE(f.window_start_ns ? "windowed" : "unfiltered");
      const auto col_time = c.col_time(f);
      RandomChunkSource source(ordered_records(c, f), seed * 31 + 1);
      metrics::OverlapConsumer overlap(f);
      metrics::TimelineConsumer timeline(window, f.window_start_ns,
                                         f.window_end_ns);
      metrics::ConcurrencyProfileConsumer profile(f);
      metrics::MetricPipeline pipeline;
      pipeline.attach(overlap).attach(timeline).attach(profile);
      ASSERT_TRUE(pipeline.run(source).ok());

      EXPECT_EQ(overlap.io_time().ns(),
                metrics::overlap_time_bruteforce(col_time).ns());
      EXPECT_EQ(overlap.peak_concurrency(),
                metrics::peak_concurrency(col_time));
      EXPECT_EQ(overlap.idle_time().ns(), metrics::idle_time(col_time).ns());
      EXPECT_EQ(overlap.avg_concurrency(),
                metrics::average_concurrency(col_time));

      const auto streamed = timeline.take();
      const auto batch = *metrics::build_timeline(c, window, f);
      ASSERT_EQ(streamed.windows.size(), batch.windows.size());
      for (std::size_t i = 0; i < batch.windows.size(); ++i) {
        SCOPED_TRACE("window " + std::to_string(i));
        const auto& a = batch.windows[i];
        const auto& b = streamed.windows[i];
        EXPECT_EQ(a.start_ns, b.start_ns);
        EXPECT_EQ(a.end_ns, b.end_ns);
        EXPECT_EQ(a.blocks, b.blocks);
        EXPECT_EQ(a.accesses_active, b.accesses_active);
        EXPECT_EQ(a.io_time_s, b.io_time_s);
        EXPECT_EQ(a.busy_fraction, b.busy_fraction);
        EXPECT_EQ(a.bps, b.bps);
        EXPECT_EQ(a.avg_concurrency, b.avg_concurrency);
        EXPECT_EQ(b.io_time_s,
                  window_union_bruteforce(col_time, b.start_ns, b.end_ns)
                      .seconds());
      }
      EXPECT_EQ(profile.profile(), metrics::concurrency_profile(c, f));
    }
  }
}

/// One filter's readings by plain loops over the gathered records: B, the
/// record count and the response-time total over the records the filter
/// selects (whole), and T, the span and the summed lengths over their
/// intervals clamped to the window, T by the O(n^2) union.
struct FilterOracle {
  std::uint64_t blocks = 0;
  std::uint64_t accesses = 0;
  std::int64_t response_ns = 0;
  std::int64_t t_ns = 0;
  std::int64_t idle_ns = 0;
  std::int64_t sum_len_ns = 0;
};

FilterOracle filter_oracle(const std::vector<IoRecord>& records,
                           const trace::RecordFilter& f) {
  FilterOracle o;
  std::vector<trace::TimeInterval> clamped;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (const IoRecord& r : records) {
    if (f.pid && r.pid != *f.pid) continue;
    if (f.op && r.op != *f.op) continue;
    if (!f.include_failed && r.failed()) continue;
    if (f.window_start_ns && r.end_ns < *f.window_start_ns) continue;
    if (f.window_end_ns && r.start_ns >= *f.window_end_ns) continue;
    o.blocks += r.blocks;
    ++o.accesses;
    o.response_ns += r.end_ns - r.start_ns;
    const std::int64_t s =
        f.window_start_ns ? std::max(r.start_ns, *f.window_start_ns)
                          : r.start_ns;
    const std::int64_t e =
        f.window_end_ns ? std::min(r.end_ns, *f.window_end_ns) : r.end_ns;
    if (e < s) continue;
    lo = clamped.empty() ? s : std::min(lo, s);
    hi = clamped.empty() ? e : std::max(hi, e);
    clamped.push_back({s, e});
    if (e > s) o.sum_len_ns += e - s;
  }
  o.t_ns = metrics::overlap_time_bruteforce(clamped).ns();
  if (!clamped.empty()) o.idle_ns = hi - lo - o.t_ns;
  return o;
}

TEST(CollectorEntryPoints, FilteredReadingsMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto records = shaped_records(seed, 60 + (seed * 53) % 140, {1, 2, 3, 4});
    Rng op_rng(seed * 7 + 3);
    for (IoRecord& r : records) {
      if (op_rng.next() % 3 == 0) r.op = trace::IoOpKind::write;
    }
    // Window edges strictly inside two records, one early, one late.
    std::vector<IoRecord> long_ones;
    for (const IoRecord& r : records) {
      if (r.end_ns - r.start_ns >= 2) long_ones.push_back(r);
    }
    std::stable_sort(long_ones.begin(), long_ones.end(),
                     [](const IoRecord& a, const IoRecord& b) {
                       return a.start_ns < b.start_ns;
                     });
    ASSERT_GE(long_ones.size(), 8u);
    const IoRecord& early = long_ones[long_ones.size() / 4 + seed % 3];
    const IoRecord& late = long_ones[3 * long_ones.size() / 4 - seed % 3];
    const std::int64_t ws = early.start_ns + (early.end_ns - early.start_ns) / 2;
    const std::int64_t we = late.start_ns + (late.end_ns - late.start_ns) / 2;
    ASSERT_LT(ws, we);
    // Records on the edges: one ending at the window's start (kept, with
    // no time inside), one starting at its end (dropped), one across both.
    records.push_back(make_record(2, 3, SimTime(ws - 5), SimTime(ws)));
    records.push_back(make_record(3, 4, SimTime(we), SimTime(we + 5)));
    records.push_back(make_record(1, 5, SimTime(ws - 3), SimTime(we + 3),
                                  trace::IoOpKind::write));
    // Gathered out of (start, end) order: the later half first.
    trace::TraceCollector c;
    const auto half = records.begin() + static_cast<std::ptrdiff_t>(
                                            records.size() / 2);
    c.gather(std::vector<IoRecord>(half, records.end()));
    c.gather(std::vector<IoRecord>(records.begin(), half));
    core::BpsMeter meter(seed % 2 == 0 ? kDefaultBlockSize : 4096);
    meter.gather(c.records());
    std::vector<std::uint32_t> pids;
    for (const IoRecord& r : records) pids.push_back(r.pid);
    std::sort(pids.begin(), pids.end());
    const auto processes = static_cast<std::size_t>(
        std::unique(pids.begin(), pids.end()) - pids.begin());
    const SimDuration period(1000 + static_cast<std::int64_t>(seed) * 7919);

    for (const bool windowed_start : {false, true}) {
      for (const bool windowed_end : {false, true}) {
        for (const int op : {-1, 0, 1}) {
          for (const bool one_pid : {false, true}) {
            for (const bool include_failed : {true, false}) {
              trace::RecordFilter f;
              if (windowed_start) f.window_start_ns = ws;
              if (windowed_end) f.window_end_ns = we;
              if (op >= 0) f.op = static_cast<trace::IoOpKind>(op);
              if (one_pid) f.pid = static_cast<std::uint32_t>(1 + seed % 4);
              f.include_failed = include_failed;
              SCOPED_TRACE(std::string("window ") +
                           (windowed_start ? "[" : "(") +
                           (windowed_end ? "]" : ")") + " op " +
                           std::to_string(op) + (one_pid ? " one pid" : "") +
                           (include_failed ? "" : " no failed"));
              const FilterOracle o = filter_oracle(records, f);
              const double t_s = SimDuration(o.t_ns).seconds();

              const auto reading = meter.measure(f);
              const std::uint64_t blocks =
                  meter.block_size() == kDefaultBlockSize
                      ? o.blocks
                      : bytes_to_blocks(blocks_to_bytes(o.blocks),
                                        meter.block_size());
              EXPECT_EQ(reading.blocks, blocks);
              EXPECT_EQ(reading.io_time_s, t_s);
              EXPECT_EQ(reading.bps, o.t_ns > 0
                                         ? static_cast<double>(blocks) / t_s
                                         : 0.0);
              EXPECT_EQ(reading.accesses, o.accesses);
              EXPECT_EQ(reading.processes, processes);
              EXPECT_EQ(reading.idle_time_s, SimDuration(o.idle_ns).seconds());
              EXPECT_EQ(reading.avg_concurrency,
                        o.t_ns > 0 ? static_cast<double>(o.sum_len_ns) /
                                         static_cast<double>(o.t_ns)
                                   : 0.0);

              EXPECT_EQ(metrics::iops(c, period, f),
                        static_cast<double>(o.accesses) / period.seconds());
              EXPECT_EQ(metrics::iops(c, SimDuration::zero(), f), 0.0);
              EXPECT_EQ(metrics::arpt(c, f),
                        o.accesses > 0
                            ? static_cast<double>(o.response_ns) /
                                  static_cast<double>(o.accesses) * 1e-9
                            : 0.0);
            }
          }
        }
      }
    }
  }
}

/// Canonical (start, end) order, ties in input order.
void sort_records(std::vector<IoRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const IoRecord& a, const IoRecord& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.end_ns < b.end_ns;
                   });
}

// The end orders a pending-ends structure must survive: random lengths,
// intervals nested in their predecessor, runs of one shared end, ends in
// start order (first in, first out) and in reverse (last in, first out).
enum class EndShape { random, nested, equal, ascending, descending };

/// `count` (start, end)-ordered records whose ends follow `shape`; starts
/// repeat and about one record in nine has zero length.
std::vector<IoRecord> pending_end_records(std::uint64_t seed, EndShape shape,
                                          std::size_t count) {
  Rng rng(seed);
  std::vector<IoRecord> out;
  std::int64_t t = 0;
  std::int64_t prev_end = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<std::int64_t>(rng.next() % 4);
    std::int64_t e = t;
    switch (shape) {
      case EndShape::random:
        e = t + static_cast<std::int64_t>(rng.next() % 200);
        break;
      case EndShape::nested:
        e = prev_end > t + 1 ? t + 1 + static_cast<std::int64_t>(
                                           rng.next() % (prev_end - t))
                             : t + 150 + static_cast<std::int64_t>(rng.next() % 100);
        break;
      case EndShape::equal:
        e = std::max(t, (t / 64 + 1) * 64);
        break;
      case EndShape::ascending:
        e = t + 90;
        break;
      case EndShape::descending:
        e = 1'000'000 - static_cast<std::int64_t>(i);
        break;
    }
    if (rng.next() % 9 == 0) e = t;
    out.push_back(make_record(1, 1, SimTime(t), SimTime(e)));
    prev_end = e;
  }
  sort_records(out);
  return out;
}

/// A closed loop at queue depth `depth`: `depth` slots start together, and
/// each slot issues its next record where its previous one ended, so the
/// stream sits at its peak and every later start equals an earlier end.
std::vector<IoRecord> closed_loop_records(std::uint64_t seed,
                                          std::size_t depth,
                                          std::size_t count) {
  Rng rng(seed);
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>>
      free_at;
  for (std::size_t i = 0; i < depth; ++i) free_at.push(0);
  std::vector<IoRecord> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t s = free_at.top();
    free_at.pop();
    const std::int64_t e = s + 1 + static_cast<std::int64_t>(rng.next() % 1000);
    out.push_back(make_record(1, 1, SimTime(s), SimTime(e)));
    free_at.push(e);
  }
  sort_records(out);
  return out;
}

/// `peak` intervals open together, then a long tail of short intervals far
/// below that peak. The first interval outlasts the tail, so no start
/// passes every pending end, and the peak's ends go stale in the buffer
/// and the heap until the pending count reaches the peak again.
std::vector<IoRecord> early_peak_records(std::uint64_t seed, std::size_t peak,
                                         std::size_t tail) {
  Rng rng(seed);
  std::vector<IoRecord> out;
  out.push_back(make_record(1, 1, SimTime(0), SimTime(1'000'000'000)));
  for (std::size_t i = 1; i < peak; ++i) {
    const auto s = static_cast<std::int64_t>(i);
    const std::int64_t e = 1000 + static_cast<std::int64_t>(rng.next() % 50);
    out.push_back(make_record(1, 1, SimTime(s), SimTime(e)));
  }
  std::int64_t t = 2000;
  for (std::size_t i = 0; i < tail; ++i) {
    const std::int64_t len = 1 + static_cast<std::int64_t>(rng.next() % 10);
    out.push_back(make_record(1, 1, SimTime(t), SimTime(t + len)));
    t += static_cast<std::int64_t>(rng.next() % 12);
  }
  sort_records(out);
  return out;
}

/// Back to back: each record starts where the previous one ended, one in
/// five has zero length and one in seven shares its start with the next.
std::vector<IoRecord> touching_records(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<IoRecord> out;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t len =
        rng.next() % 5 == 0 ? 0 : 1 + static_cast<std::int64_t>(rng.next() % 6);
    out.push_back(make_record(1, 1, SimTime(t), SimTime(t + len)));
    if (rng.next() % 7 != 0) t += len;
  }
  sort_records(out);
  return out;
}

/// Feeds `records` to an OverlapConsumer with `filter`'s window one record at
/// a time. After every record its peak must equal a std::priority_queue
/// sweep over the clamped intervals and, every `oracle_stride` records and
/// at the last, peak_concurrency() over the clamped prefix. Then the whole
/// stream through sources of 1, 7, the default and random chunk sizes.
void expect_peak_follows_a_priority_queue(const std::vector<IoRecord>& records,
                                          const trace::RecordFilter& filter,
                                          std::size_t oracle_stride,
                                          std::uint64_t seed) {
  metrics::OverlapConsumer overlap(filter);
  std::priority_queue<std::int64_t, std::vector<std::int64_t>, std::greater<>>
      ends;
  std::vector<trace::TimeInterval> clamped;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const IoRecord& r = records[i];
    overlap.consume({&r, 1});
    const std::int64_t s = std::max(
        r.start_ns, filter.window_start_ns.value_or(r.start_ns));
    const std::int64_t e =
        std::min(r.end_ns, filter.window_end_ns.value_or(r.end_ns));
    if (e > s) {
      while (!ends.empty() && ends.top() <= s) ends.pop();
      ends.push(e);
      peak = std::max(peak, ends.size());
      clamped.push_back({s, e});
    }
    ASSERT_EQ(overlap.peak_concurrency(), peak) << "after record " << i;
    if ((i + 1) % oracle_stride == 0 || i + 1 == records.size()) {
      ASSERT_EQ(peak, metrics::peak_concurrency(clamped)) << "after record "
                                                          << i;
    }
  }
  const auto run_peak = [&](trace::RecordSource& source) {
    metrics::OverlapConsumer streamed(filter);
    metrics::MetricPipeline pipeline;
    pipeline.attach(streamed);
    EXPECT_TRUE(pipeline.run(source).ok());
    return streamed.peak_concurrency();
  };
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  trace::kDefaultSourceChunk}) {
    auto source = trace::VectorSource::view(records, chunk);
    EXPECT_EQ(run_peak(source), peak) << "chunk " << chunk;
  }
  RandomChunkSource random(records, seed);
  EXPECT_EQ(run_peak(random), peak) << "random chunks";
}

TEST(PendingEnds, PeakAndProfileFollowAPriorityQueue) {
  std::vector<std::pair<std::string, std::vector<IoRecord>>> streams;
  for (const EndShape shape : {EndShape::random, EndShape::nested,
                               EndShape::equal, EndShape::ascending,
                               EndShape::descending}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      streams.emplace_back("shape " + std::to_string(static_cast<int>(shape)) +
                               ", seed " + std::to_string(seed),
                           pending_end_records(seed, shape, 400));
    }
  }
  // At depth 64 and 4096 a retirement follows every record once the loop
  // is full, and the buffer spills into the heap.
  for (const std::size_t depth : {std::size_t{64}, std::size_t{4096}}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      streams.emplace_back("closed loop at depth " + std::to_string(depth) +
                               ", seed " + std::to_string(seed),
                           closed_loop_records(seed, depth, 3 * depth));
    }
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    streams.emplace_back("early peak, seed " + std::to_string(seed),
                         early_peak_records(seed, 300, 6000));
    streams.emplace_back("touching, seed " + std::to_string(seed),
                         touching_records(seed, 3000));
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& [name, records] = streams[i];
    SCOPED_TRACE(name);
    ASSERT_FALSE(records.empty());
    const std::size_t oracle_stride = records.size() <= 400 ? 1 : 61;
    expect_peak_follows_a_priority_queue(records, {}, oracle_stride, i);
    // A window over the middle half clamps records at both edges.
    const std::int64_t lo = records.front().start_ns;
    const std::int64_t hi = records.back().end_ns;
    trace::RecordFilter window;
    window.window_start_ns = lo + (hi - lo) / 4;
    window.window_end_ns = hi - (hi - lo) / 4;
    expect_peak_follows_a_priority_queue(records, window, oracle_stride, i);

    trace::TraceCollector c;
    for (const IoRecord& r : records) c.add(r);
    auto source = RandomChunkSource(records, i);
    metrics::ConcurrencyProfileConsumer profile;
    metrics::MetricPipeline pipeline;
    pipeline.attach(profile);
    ASSERT_TRUE(pipeline.run(source).ok());
    EXPECT_EQ(profile.profile(), metrics::concurrency_profile(c));
  }
}

TEST(PendingEnds, EveryTopAndSizeMatchAPriorityQueue) {
  for (const EndShape shape : {EndShape::random, EndShape::nested,
                               EndShape::equal, EndShape::ascending,
                               EndShape::descending}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                   ", seed " + std::to_string(seed));
      metrics::PendingEnds heap;
      std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                          std::greater<>>
          oracle;
      const auto expect_same = [&] {
        ASSERT_EQ(heap.size(), oracle.size());
        ASSERT_EQ(heap.empty(), oracle.empty());
        if (!oracle.empty()) {
          ASSERT_EQ(heap.top(), oracle.top());
        }
      };
      Rng rng(seed);
      for (const IoRecord& r : pending_end_records(seed, shape, 500)) {
        // The sweep's pattern, then now and again a deeper drain.
        while (!oracle.empty() && oracle.top() <= r.start_ns) {
          heap.pop();
          oracle.pop();
          expect_same();
        }
        heap.push(r.end_ns);
        oracle.push(r.end_ns);
        expect_same();
        for (std::uint64_t extra = rng.next() % 16 == 0 ? rng.next() % 9 : 0;
             extra > 0 && !oracle.empty(); --extra) {
          heap.pop();
          oracle.pop();
          expect_same();
        }
      }
      while (!oracle.empty()) {
        heap.pop();
        oracle.pop();
        expect_same();
      }
    }
  }
}

TEST(PeakConcurrency, ScansThePendingEndsOnlyWhenThePeakCanRise) {
  // Back-to-back intervals clear the pending ends at every start and never
  // scan them. A closed loop sits at its peak, so nearly every record
  // scans, and the buffer keeps spilling into the heap.
  metrics::PeakConcurrency sequential;
  for (std::int64_t i = 0; i < 1000; ++i) sequential.add(10 * i, 10 * i + 10);
  EXPECT_EQ(sequential.peak(), 1u);
  EXPECT_EQ(sequential.retirements(), 0u);
  EXPECT_EQ(sequential.spills(), 0u);

  metrics::PeakConcurrency loop;
  for (const IoRecord& r : closed_loop_records(7, 64, 4000)) {
    loop.add(r.start_ns, r.end_ns);
  }
  EXPECT_EQ(loop.peak(), 64u);
  EXPECT_GT(loop.retirements(), 3500u);
  EXPECT_GT(loop.spills(), 400u);
}

TEST(MetricPipeline, RejectsUnorderedStreams) {
  std::vector<IoRecord> unsorted;
  unsorted.push_back(make_record(1, 1, SimTime(100), SimTime(200)));
  unsorted.push_back(make_record(1, 1, SimTime(0), SimTime(50)));
  auto source = trace::VectorSource::view(unsorted);
  metrics::OverlapConsumer overlap;
  metrics::MetricPipeline pipeline;
  pipeline.attach(overlap);
  const Status run = pipeline.run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().message.find("unordered"), std::string::npos);
}

TEST(MetricPipeline, PropagatesSourceFailure) {
  trace::MappedTraceSource missing("/tmp/bpsio_no_such_pipeline.bpstrace");
  const auto sample =
      metrics::measure_stream(missing, Bytes{0}, SimDuration(1));
  EXPECT_FALSE(sample.ok());
}

TEST(MetricPipeline, EmptyStreamYieldsZeroSample) {
  auto source = trace::VectorSource::sorted({});
  const auto sample =
      metrics::measure_stream(source, Bytes{0}, SimDuration(1'000'000'000));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->access_count, 0u);
  EXPECT_EQ(sample->app_blocks, 0u);
  EXPECT_DOUBLE_EQ(sample->io_time_s, 0.0);
  EXPECT_DOUBLE_EQ(sample->bps, 0.0);
  EXPECT_DOUBLE_EQ(sample->arpt_s, 0.0);
  EXPECT_DOUBLE_EQ(sample->peak_concurrency, 0.0);
}

}  // namespace
}  // namespace bpsio
