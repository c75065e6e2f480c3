// Streaming trace consumption: peak-RSS contract and mmap throughput.
//
// Two modes over the same spilled trace file:
//
//   --mode=rss (default)  The claim under test is the streaming pipeline's
//       reason to exist: a MetricSample over an N-record trace file costs
//       O(chunk) resident memory through measure_stream, while the
//       materialized path (load_binary -> TraceCollector -> measure_run)
//       costs O(N). Three passes, in this order because ru_maxrss never
//       decreases: open_trace_source() (the mmap source bpsio_report and
//       the daemons' drains use; mapped file pages count in RSS, so its
//       budget is a few chunks), SpilledTraceSource, then the materialized
//       path. All three must produce bit-identical samples, and the two
//       streaming passes must stay inside their budgets while the trace is
//       >= 100x the SpillWriter's in-memory batch default (4096 records).
//
//   --mode=throughput  Statistical-harness drain of the same file through
//       SpilledTraceSource (ifstream copy-per-chunk) and MappedTraceSource
//       (spans over the mapping, zero copies), emitting
//       BENCH_trace_stream_ifstream.json and BENCH_trace_stream_mmap.json;
//       the mmap record carries `speedup_vs_ifstream`. Each timed drain
//       reads every record's payload into a checksum, so the mapped source
//       pays its page faults and page release, and both drains must agree
//       on record count and total blocks or the bench fails.
//
// The rss smoke ctest runs --records=409600 (100x the in-memory default,
// ~12.5 MiB on disk). Exit status is nonzero on any mismatch or an RSS
// blowup, so CI catches a regression that quietly re-materializes the trace
// or keeps the mapped trace resident.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_cli.hpp"
#include "common/check.hpp"
#include "metrics/calculators.hpp"
#include "metrics/pipeline.hpp"
#include "trace/mapped_source.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "trace/trace_collector.hpp"
#include "tools/cli.hpp"

using namespace bpsio;

namespace {

// Peak resident set size in KiB (Linux ru_maxrss unit). Monotone per
// process, which is why the streaming pass must run first.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Overlapping bursty workload in canonical (start, end) order: strictly
// increasing starts, each access overlapping the next few.
trace::IoRecord synthetic_record(std::uint64_t i) {
  const auto start = static_cast<std::int64_t>(i) * 50;
  const auto len = 120 + static_cast<std::int64_t>(i % 7) * 40;
  return trace::make_record(static_cast<std::uint32_t>(i % 8 + 1), i % 9 + 1,
                            SimTime(start), SimTime(start + len));
}

bool write_trace(const std::string& path, std::uint64_t records) {
  // The bounded-memory writer never holds > 4096 records, so generation
  // itself cannot inflate the baseline RSS.
  trace::SpillWriter writer(path);
  for (std::uint64_t i = 0; i < records; ++i) {
    writer.append(synthetic_record(i));
  }
  if (!writer.close().ok()) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool identical(const metrics::MetricSample& a, const metrics::MetricSample& b,
               const char* what) {
  const bool same =
      a.access_count == b.access_count && a.app_blocks == b.app_blocks &&
      a.app_bytes == b.app_bytes && a.io_time_s == b.io_time_s &&
      a.iops == b.iops && a.arpt_s == b.arpt_s && a.bps == b.bps &&
      a.peak_concurrency == b.peak_concurrency;
  if (!same) {
    std::fprintf(stderr, "FAIL: %s differs\n  streaming:    %s\n  batch:        %s\n",
                 what, a.to_string().c_str(), b.to_string().c_str());
  }
  return same;
}

// ---------------------------------------------------------------------------
// --mode=rss
// ---------------------------------------------------------------------------

int run_rss_mode(const std::string& path, std::uint64_t records,
                 std::size_t chunk) {
  const Bytes moved = records * 4 * kKiB;
  const SimDuration exec = SimDuration(static_cast<std::int64_t>(records) * 60);

  std::printf("=== streaming vs materialized metrics: %llu records (%.1f MiB on disk) ===\n",
              static_cast<unsigned long long>(records),
              static_cast<double>(records) * sizeof(trace::IoRecord) /
                  (1024.0 * 1024.0));

  // Pass 1 — the default source (must run first: ru_maxrss never
  // decreases, so no later pass can push the high-water mark it sets).
  const long rss_before_mapped = peak_rss_kib();
  const auto mapped_source = trace::open_trace_source(path, chunk);
  const auto mapped = metrics::measure_stream(*mapped_source, moved, exec);
  const long mapped_growth = peak_rss_kib() - rss_before_mapped;
  if (!mapped.ok()) {
    std::fprintf(stderr, "FAIL: default-source measure: %s\n",
                 mapped.error().message.c_str());
    return 1;
  }

  // Pass 2 — the ifstream source.
  const long rss_before_stream = peak_rss_kib();
  trace::SpilledTraceSource source(path, chunk);
  const auto streamed = metrics::measure_stream(source, moved, exec);
  const long stream_growth = peak_rss_kib() - rss_before_stream;
  if (!streamed.ok()) {
    std::fprintf(stderr, "FAIL: streaming measure: %s\n",
                 streamed.error().message.c_str());
    return 1;
  }

  // Pass 3 — materialized batch path.
  const long rss_before_batch = peak_rss_kib();
  metrics::MetricSample batch;
  {
    const auto loaded = trace::load_binary(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL: load_binary: %s\n",
                   loaded.error().message.c_str());
      return 1;
    }
    trace::TraceCollector collector;
    collector.gather(*loaded);
    batch = metrics::measure_run(collector, moved, exec);
  }
  const long batch_growth = peak_rss_kib() - rss_before_batch;

  std::printf("  streaming: %s\n", streamed->to_string().c_str());
  std::printf("  rss growth: default source %+ld KiB, ifstream source %+ld "
              "KiB (chunk=%zu records), materialized %+ld KiB\n",
              mapped_growth, stream_growth, chunk, batch_growth);

  int failures = 0;
  if (!identical(*mapped, batch, "default-source vs materialized sample")) {
    ++failures;
  }
  if (!identical(*streamed, batch, "streaming vs materialized sample")) {
    ++failures;
  }
  const long chunk_kib =
      static_cast<long>(chunk * sizeof(trace::IoRecord) / 1024);
  // The default source maps the file, and mapped pages count in RSS: it may
  // hold about one chunk plus fault-around and allocator slack, never the
  // trace. Four chunks (2 MiB at the default chunk) plus 1 MiB is a sixth
  // of the smoke trace.
  const long mapped_budget_kib = 4 * chunk_kib + 1024;
  if (mapped_growth > mapped_budget_kib) {
    std::fprintf(stderr,
                 "FAIL: default-source pass grew %ld KiB (budget %ld KiB) — "
                 "the mapped trace stayed resident\n",
                 mapped_growth, mapped_budget_kib);
    ++failures;
  }
  // Flat-memory check, deliberately generous: the streaming pass may grow by
  // its chunk buffer plus allocator slack, never by anything proportional to
  // the trace. 16 MiB is ~3% of the full-mode trace's materialized footprint.
  const long stream_budget_kib = 16 * 1024 + chunk_kib;
  if (stream_growth > stream_budget_kib) {
    std::fprintf(stderr,
                 "FAIL: streaming pass grew %ld KiB (budget %ld KiB) — "
                 "something materialized the trace\n",
                 stream_growth, stream_budget_kib);
    ++failures;
  }
  // The materialized path must actually pay for the records (one full copy
  // at minimum), otherwise this harness is not measuring what it claims.
  const long one_copy_kib =
      static_cast<long>(records * sizeof(trace::IoRecord) / 1024);
  if (batch_growth < one_copy_kib) {
    std::fprintf(stderr,
                 "FAIL: materialized pass grew only %ld KiB (< one record "
                 "copy %ld KiB) — baseline invalid\n",
                 batch_growth, one_copy_kib);
    ++failures;
  }
  if (failures == 0) {
    std::printf("OK: identical samples, streaming memory flat\n");
    return 0;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// --mode=throughput
// ---------------------------------------------------------------------------

struct DrainTotals {
  std::uint64_t count = 0;
  std::uint64_t blocks = 0;
};

// Drain that reads every record's payload: the untimed pass proves the two
// sources deliver identical streams, and the timed passes charge each
// source what a consumer pays to read it — the ifstream path its copy into
// the chunk buffer, the mapped path its page faults and page release.
DrainTotals checksum_drain(trace::RecordSource& source) {
  DrainTotals totals;
  for (;;) {
    const auto chunk = source.next_chunk();
    if (chunk.empty()) break;
    totals.count += chunk.size();
    for (const auto& record : chunk) totals.blocks += record.blocks;
  }
  BPSIO_CHECK(source.status().ok(), "drain failed: %s",
              source.status().error().message.c_str());
  return totals;
}

int run_throughput_mode(const bench::CommonBenchArgs& args,
                        const std::string& path, std::uint64_t records,
                        std::size_t chunk) {
  std::printf("=== trace stream throughput: %llu records (%.1f MiB on disk), "
              "chunk=%zu ===\n",
              static_cast<unsigned long long>(records),
              static_cast<double>(records) * sizeof(trace::IoRecord) /
                  (1024.0 * 1024.0),
              chunk);

  // Prove the two sources deliver identical streams before timing anything;
  // this also checks the mapped source really is mapping — a silent
  // fallback to the ifstream path would make the comparison meaningless.
  DrainTotals expected;
  {
    trace::MappedTraceSource mapped(path, chunk);
    BPSIO_CHECK(mapped.status().ok(), "mmap source failed: %s",
                mapped.status().error().message.c_str());
    trace::SpilledTraceSource spilled(path, chunk);
    expected = checksum_drain(mapped);
    const DrainTotals b = checksum_drain(spilled);
    BPSIO_CHECK(expected.count == records && b.count == records &&
                    expected.blocks == b.blocks,
                "ifstream and mmap drains disagree");
  }

  auto ifstream_cfg = bench::make_harness_config("trace_stream_ifstream", args);
  const bench::BenchHarness ifstream_harness(ifstream_cfg);
  const auto ifstream_result = ifstream_harness.run([&] {
    trace::SpilledTraceSource source(path, chunk);
    const DrainTotals got = checksum_drain(source);
    BPSIO_CHECK(got.count == records && got.blocks == expected.blocks,
                "ifstream drain lost records");
    return static_cast<double>(got.count);
  });

  auto mmap_cfg = bench::make_harness_config("trace_stream_mmap", args);
  const bench::BenchHarness mmap_harness(mmap_cfg);
  const auto mmap_result = mmap_harness.run([&] {
    trace::MappedTraceSource source(path, chunk);
    const DrainTotals got = checksum_drain(source);
    BPSIO_CHECK(got.count == records && got.blocks == expected.blocks,
                "mmap drain lost records");
    return static_cast<double>(got.count);
  });

  const double speedup = ifstream_result.est.mean > 0
                             ? mmap_result.est.mean / ifstream_result.est.mean
                             : 0.0;
  std::printf("  mmap vs ifstream: %.2fx\n", speedup);
  char speedup_str[32];
  std::snprintf(speedup_str, sizeof speedup_str, "%.4f", speedup);

  const std::map<std::string, std::string> shared = {
      {"records", std::to_string(records)},
      {"chunk", std::to_string(chunk)},
      {"profile", args.profile}};
  auto mmap_extra = shared;
  mmap_extra.emplace("speedup_vs_ifstream", speedup_str);
  int rc = bench::report_result(args, ifstream_cfg, ifstream_result, shared);
  rc |= bench::report_result(args, mmap_cfg, mmap_result, mmap_extra);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  long long chunk_arg = static_cast<long long>(trace::kDefaultSourceChunk);
  std::string mode = "rss";

  cli::ArgParser parser("bench_trace_stream",
                        "Streaming trace consumption: flat-memory check "
                        "(--mode=rss) or mmap-vs-ifstream drain throughput "
                        "with a statistical harness (--mode=throughput).");
  bench::register_common_flags(parser, &args, /*with_threads=*/false);
  parser.add_int("--chunk", &chunk_arg, 1, 1'000'000'000, "N",
                 "streaming chunk size in records (default 16384)");
  parser.add_value("--mode", "rss|throughput",
                   "flat-memory contract or harness drain throughput "
                   "(default rss)",
                   [&mode](const std::string& v) {
                     if (v != "rss" && v != "throughput") return false;
                     mode = v;
                     return true;
                   });
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }
  // rss mode keeps its historical 4096000-record default; throughput uses
  // the harness profile tiers.
  const std::uint64_t records =
      mode == "rss" ? (args.records > 0 ? static_cast<std::uint64_t>(args.records)
                                        : 4'096'000)
                    : bench::resolve_records(args, 409'600, 4'096'000);
  const auto chunk = static_cast<std::size_t>(chunk_arg);
  // A path of this process's own: ctest runs the rss and throughput smokes
  // in parallel, and a shared name let one delete the other's trace.
  std::string path = "/tmp/bpsio_bench_trace_stream_XXXXXX.bpstrace";
  const int fd =
      ::mkstemps(path.data(), static_cast<int>(sizeof ".bpstrace" - 1));
  if (fd < 0) {
    std::fprintf(stderr, "FAIL: cannot create a temporary trace file\n");
    return 1;
  }
  ::close(fd);

  if (!write_trace(path, records)) {
    std::remove(path.c_str());
    return 1;
  }
  const int rc = mode == "rss"
                     ? run_rss_mode(path, records, chunk)
                     : run_throughput_mode(args, path, records, chunk);
  std::remove(path.c_str());
  return rc;
}
