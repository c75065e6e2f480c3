// Streaming trace consumption: peak-RSS contract and mmap throughput.
//
// Two modes over the same spilled trace file:
//
//   --mode=rss (default)  The claim under test is the streaming pipeline's
//       reason to exist: a MetricSample over an N-record trace file costs
//       O(chunk) resident memory through measure_stream, while the
//       materialized path (load_binary -> TraceCollector -> measure_run)
//       costs O(N). Three passes: open_trace_source() (the mapped source
//       bpsio_report and the daemons' drains use; mapped file pages count
//       in RSS, so its budget is a few chunks); the same records dealt
//       round-robin over 16 files and merged back by MergedSource, as
//       bpsio_report reads a capture directory (budget: two chunks per
//       file plus 1 MiB); then the materialized path. All three must
//       produce bit-identical samples, the streaming passes must stay
//       inside their budgets while the trace is >= 100x the SpillWriter's
//       in-memory batch default (4096 records), and the materialized pass
//       must pay for at least one copy of the records. ru_maxrss never
//       decreases, so a streaming pass's growth is read as the peak after
//       it minus the resident set before it, which can only overstate it.
//
//   --mode=throughput  Statistical-harness drain of the same file through
//       MappedTraceSource (spans over the mapping, zero copies), emitting
//       BENCH_trace_stream_mmap.json. Each timed drain reads every record's
//       payload into a checksum, so the source pays its page faults and its
//       window maps, and every drain must deliver the file's record count
//       and total blocks or the bench fails.
//
// The rss smoke ctest runs --records=409600 (100x the in-memory default,
// ~12.5 MiB on disk); the fan-in ctest runs --records=2359296, so that each
// of the 16 files holds 4.5 MiB, more than a 2 MiB page-cache folio, which
// a mapping of the whole file keeps resident. Exit status is nonzero on any
// mismatch or an RSS blowup, so CI catches a regression that quietly
// re-materializes the trace or keeps the mapped trace resident.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
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

constexpr std::size_t kFanInFiles = 16;

// Peak resident set size in KiB (Linux ru_maxrss unit). Monotone per
// process.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Current resident set size in KiB, from /proc/self/statm; the peak where
// that file is unavailable.
long current_rss_kib() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  long pages = -1;
  long resident = -1;
  if (statm != nullptr) {
    if (std::fscanf(statm, "%ld %ld", &pages, &resident) != 2) resident = -1;
    std::fclose(statm);
  }
  if (resident < 0) return peak_rss_kib();
  return resident * (::sysconf(_SC_PAGESIZE) / 1024);
}

// Overlapping bursty workload in canonical (start, end) order: strictly
// increasing starts, each access overlapping the next few.
trace::IoRecord synthetic_record(std::uint64_t i) {
  const auto start = static_cast<std::int64_t>(i) * 50;
  const auto len = 120 + static_cast<std::int64_t>(i % 7) * 40;
  return trace::make_record(static_cast<std::uint32_t>(i % 8 + 1), i % 9 + 1,
                            SimTime(start), SimTime(start + len));
}

// Writes records i = first, first + stride, ... below `records`, through a
// writer of `batch` records. Generation runs before a pass reads its
// resident set, and the writer frees its batch on close.
bool write_trace(const std::string& path, std::uint64_t records,
                 std::uint64_t first = 0, std::uint64_t stride = 1,
                 std::size_t batch = 4096) {
  trace::SpillWriter writer(path, batch);
  for (std::uint64_t i = first; i < records; i += stride) {
    writer.append(synthetic_record(i));
  }
  if (!writer.close().ok()) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// A path of this process's own, created empty: ctest runs the rss and
// throughput smokes in parallel, and a shared name let one delete the
// other's trace. Empty when none could be created.
std::string temp_trace_path() {
  std::string path = "/tmp/bpsio_bench_trace_stream_XXXXXX.bpstrace";
  const int fd =
      ::mkstemps(path.data(), static_cast<int>(sizeof ".bpstrace" - 1));
  if (fd < 0) return {};
  ::close(fd);
  return path;
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

// The records dealt round-robin over kFanInFiles files and merged back;
// the sample and the pass's RSS growth bound (KiB) land in the out-params.
// Returns false, having said why, when a file cannot be written or read.
bool fan_in_pass(std::uint64_t records, std::size_t chunk, Bytes moved,
                 SimDuration exec, metrics::MetricSample& sample,
                 long& growth_kib) {
  std::vector<std::string> paths;
  bool ok = true;
  for (std::size_t f = 0; f < kFanInFiles && ok; ++f) {
    paths.push_back(temp_trace_path());
    // 2 MiB writes, as bpsbench's trace generator makes: the page cache
    // then holds each file in 2 MiB folios, and a file mapped whole maps
    // one of them at its first fault.
    ok = !paths.back().empty() &&
         write_trace(paths.back(), records, f, kFanInFiles,
                     std::size_t{1} << 16);
  }
  if (ok) {
    const long rss_before = current_rss_kib();
    std::vector<std::unique_ptr<trace::RecordSource>> files;
    for (const std::string& path : paths) {
      files.push_back(trace::open_trace_source(path, chunk));
    }
    trace::MergeOptions keep;
    keep.pid_stride = 0;
    trace::MergedSource merged(std::move(files), keep, chunk);
    const auto measured = metrics::measure_stream(merged, moved, exec);
    growth_kib = peak_rss_kib() - rss_before;
    if (measured.ok()) {
      sample = *measured;
    } else {
      std::fprintf(stderr, "FAIL: %zu-file measure: %s\n", kFanInFiles,
                   measured.error().message.c_str());
      ok = false;
    }
  } else {
    std::fprintf(stderr, "FAIL: cannot write the %zu fan-in files\n",
                 kFanInFiles);
  }
  for (const std::string& path : paths) std::remove(path.c_str());
  return ok;
}

int run_rss_mode(const std::string& path, std::uint64_t records,
                 std::size_t chunk) {
  const Bytes moved = records * 4 * kKiB;
  const SimDuration exec = SimDuration(static_cast<std::int64_t>(records) * 60);

  std::printf("=== streaming vs materialized metrics: %llu records (%.1f MiB on disk) ===\n",
              static_cast<unsigned long long>(records),
              static_cast<double>(records) * sizeof(trace::IoRecord) /
                  (1024.0 * 1024.0));

  // Pass 1 — the default source.
  const long rss_before_mapped = current_rss_kib();
  const auto mapped_source = trace::open_trace_source(path, chunk);
  const auto mapped = metrics::measure_stream(*mapped_source, moved, exec);
  const long mapped_growth = peak_rss_kib() - rss_before_mapped;
  if (!mapped.ok()) {
    std::fprintf(stderr, "FAIL: default-source measure: %s\n",
                 mapped.error().message.c_str());
    return 1;
  }

  // Pass 2 — the same records from kFanInFiles files.
  metrics::MetricSample fan_in;
  long fan_in_growth = 0;
  if (!fan_in_pass(records, chunk, moved, exec, fan_in, fan_in_growth)) {
    return 1;
  }

  // Pass 3 — materialized batch path. Its growth is read from the peak
  // alone, which can only understate it.
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

  std::printf("  streaming: %s\n", mapped->to_string().c_str());
  std::printf("  rss growth: default source %+ld KiB (chunk=%zu records), "
              "%zu files %+ld KiB, materialized %+ld KiB\n",
              mapped_growth, chunk, kFanInFiles, fan_in_growth, batch_growth);

  int failures = 0;
  if (!identical(*mapped, batch, "default-source vs materialized sample")) {
    ++failures;
  }
  if (!identical(fan_in, batch, "16-file vs materialized sample")) {
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
  // Each file keeps its current chunk's window mapped; the merge adds one
  // chunk of output. A file mapped whole keeps a 2 MiB page-cache folio
  // resident from its first fault.
  const long fan_in_budget_kib =
      static_cast<long>(kFanInFiles) * 2 * chunk_kib + 1024;
  if (fan_in_growth > fan_in_budget_kib) {
    std::fprintf(stderr,
                 "FAIL: %zu-file pass grew %ld KiB (budget %ld KiB) — the "
                 "mapped files stayed resident\n",
                 kFanInFiles, fan_in_growth, fan_in_budget_kib);
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

// Drain that reads every record's payload, so a timed pass charges the
// mapped source what a consumer pays to read it: its page faults and its
// window maps.
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

  // Drain once untimed: the file must deliver every record before the
  // timed passes compare against its totals.
  DrainTotals expected;
  {
    trace::MappedTraceSource mapped(path, chunk);
    BPSIO_CHECK(mapped.status().ok(), "mmap source failed: %s",
                mapped.status().error().message.c_str());
    expected = checksum_drain(mapped);
    BPSIO_CHECK(expected.count == records, "mmap drain lost records");
  }

  auto mmap_cfg = bench::make_harness_config("trace_stream_mmap", args);
  const bench::BenchHarness mmap_harness(mmap_cfg);
  const auto mmap_result = mmap_harness.run([&] {
    trace::MappedTraceSource source(path, chunk);
    const DrainTotals got = checksum_drain(source);
    BPSIO_CHECK(got.count == records && got.blocks == expected.blocks,
                "mmap drain lost records");
    return static_cast<double>(got.count);
  });

  const std::map<std::string, std::string> extra = {
      {"records", std::to_string(records)},
      {"chunk", std::to_string(chunk)},
      {"profile", args.profile}};
  return bench::report_result(args, mmap_cfg, mmap_result, extra);
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  long long chunk_arg = static_cast<long long>(trace::kDefaultSourceChunk);
  std::string mode = "rss";

  cli::ArgParser parser("bench_trace_stream",
                        "Streaming trace consumption: flat-memory check "
                        "(--mode=rss) or mapped-source drain throughput "
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
  const std::string path = temp_trace_path();
  if (path.empty()) {
    std::fprintf(stderr, "FAIL: cannot create a temporary trace file\n");
    return 1;
  }

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
