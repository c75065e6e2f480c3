// Harness bench: SlidingWindowMetrics ingest — the live daemon's window hot
// path (incremental windowed interval-union + per-tick sums that expire a
// whole tick at a time, DESIGN.md §10).
//
// Pre-generates one seeded record stream and times two arrival shapes, each
// sample ingesting the whole stream into a fresh SlidingWindowMetrics:
//
//   window_ingest          shuffled arrival, one add() per record: frames
//                          from many clients interleaved, adversarial order.
//                          `now` jumps to the stream's end almost at once,
//                          so most records arrive with their end tick
//                          already out of the window and are rejected
//                          without touching the stores.
//   window_ingest_ordered  the same records in start order, in frames of
//                          kFrame records through add(span): one capture
//                          connection's shape. Nearly every record is
//                          accepted, so this pass times the tick sums, the
//                          union's insertion and the tick expiry.
//
// Each pass prints the share of records the window accepted. Emits
// BENCH_window_ingest.json and BENCH_window_ingest_ordered.json; throughput
// is ingested records/sec.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_cli.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

using namespace bpsio;

namespace {

/// Records per frame of the ordered pass (a capture client ships up to
/// 4096 per frame; the agent splits them into per-pid runs).
constexpr std::size_t kFrame = 1024;

std::vector<trace::IoRecord> ordered_stream(std::uint64_t n, Rng& rng) {
  std::vector<trace::IoRecord> records;
  records.reserve(n);
  std::int64_t t = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(rng.uniform_u64(500));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(20'000)) + 1;
    records.push_back(trace::make_record(static_cast<std::uint32_t>(i % 32 + 1),
                                         rng.uniform_u64(64) + 1, SimTime(t),
                                         SimTime(t + len)));
  }
  return records;
}

/// Share of records the window accepts when fed in this order, `frame`
/// records per add() (one add(record) each when `frame` is 1): after each
/// add(), the frame's records whose end is at or past the store's tick edge
/// (window_start_ns(), the first ns of its oldest tick) are the ones it
/// took in.
double store_accepted_share(std::span<const trace::IoRecord> records,
                            std::size_t frame, SimDuration window) {
  metrics::SlidingWindowMetrics live(window);
  std::uint64_t accepted = 0;
  for (std::size_t at = 0; at < records.size(); at += frame) {
    const auto batch =
        records.subspan(at, std::min(frame, records.size() - at));
    if (frame == 1) {
      live.add(batch.front());
    } else {
      live.add(batch);
    }
    for (const trace::IoRecord& r : batch) {
      if (r.end_ns >= live.window_start_ns()) ++accepted;
    }
  }
  return static_cast<double>(accepted) / static_cast<double>(records.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  std::int64_t window_ns = 10'000'000;
  cli::ArgParser parser("bench_window_ingest",
                        "SlidingWindowMetrics ingest throughput over a "
                        "shuffled per-record and an ordered frame-batched "
                        "record stream, with a statistical harness.");
  bench::register_common_flags(parser, &args, /*with_threads=*/false);
  parser.add_duration("--window", &window_ns, cli::kNsPerMs, "MS",
                      "sliding window length in milliseconds (default 10)");
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  const std::uint64_t n = bench::resolve_records(args, 100'000, 2'000'000);
  Rng rng(static_cast<std::uint64_t>(args.seed));
  const std::vector<trace::IoRecord> ordered = ordered_stream(n, rng);
  std::vector<trace::IoRecord> shuffled = ordered;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const SimDuration window(window_ns);
  const double window_ms = static_cast<double>(window_ns) / 1e6;
  const double shuffled_share = store_accepted_share(shuffled, 1, window);
  const double ordered_share = store_accepted_share(ordered, kFrame, window);
  std::printf("=== window ingest: %llu records, window=%.1f ms, seed=%llu ===\n",
              static_cast<unsigned long long>(n), window_ms,
              static_cast<unsigned long long>(args.seed));
  std::printf("  accepted: shuffled per-record %.1f%%, ordered %zu-record "
              "frames %.1f%%\n",
              100.0 * shuffled_share, kFrame, 100.0 * ordered_share);

  const std::map<std::string, std::string> shared = {
      {"records", std::to_string(n)},
      {"window_ms", std::to_string(window_ms)},
      {"profile", args.profile}};

  auto shuffled_extra = shared;
  shuffled_extra.emplace("accepted_share", std::to_string(shuffled_share));
  const auto shuffled_cfg = bench::make_harness_config("window_ingest", args);
  const auto shuffled_result =
      bench::BenchHarness(shuffled_cfg).run([&] {
        metrics::SlidingWindowMetrics live(window);
        for (const auto& record : shuffled) live.add(record);
        BPSIO_CHECK(live.any(), "ingest produced no live window state");
        return static_cast<double>(shuffled.size());
      });

  auto ordered_extra = shared;
  ordered_extra.emplace("accepted_share", std::to_string(ordered_share));
  ordered_extra.emplace("frame", std::to_string(kFrame));
  const auto ordered_cfg =
      bench::make_harness_config("window_ingest_ordered", args);
  const auto ordered_result = bench::BenchHarness(ordered_cfg).run([&] {
    metrics::SlidingWindowMetrics live(window);
    const std::span<const trace::IoRecord> all(ordered);
    for (std::size_t at = 0; at < all.size(); at += kFrame) {
      live.add(all.subspan(at, std::min(kFrame, all.size() - at)));
    }
    BPSIO_CHECK(live.any(), "ingest produced no live window state");
    return static_cast<double>(ordered.size());
  });

  int rc = bench::report_result(args, shuffled_cfg, shuffled_result,
                                shuffled_extra);
  rc |= bench::report_result(args, ordered_cfg, ordered_result, ordered_extra);
  return rc;
}
