// Walkthrough of the paper's Figures 1 and 2 — why IOPS, bandwidth, and
// average response time each mislead, and how BPS measures the overlapped
// I/O time. Unlike bench_fig1_concepts (which prints the numeric tables),
// this example narrates the reasoning and draws the Figure-2 timeline.
//
//   build/examples/metric_pitfalls
#include <cstdio>
#include <string>

#include "core/bps_meter.hpp"
#include "example_cli.hpp"
#include "metrics/overlap.hpp"
#include "trace/trace_collector.hpp"

using namespace bpsio;

namespace {

constexpr std::int64_t kMs = 1'000'000;

void timeline(const char* label, std::int64_t start_ms, std::int64_t end_ms) {
  std::string bar(10, '.');
  for (std::int64_t t = start_ms; t < end_ms && t < 10; ++t) {
    bar[static_cast<std::size_t>(t)] = '#';
  }
  std::printf("    %-4s |%s|  [%lld ms, %lld ms)\n", label, bar.c_str(),
              static_cast<long long>(start_ms), static_cast<long long>(end_ms));
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser("metric_pitfalls",
                        "Walkthrough of the paper's Figures 1 and 2: where "
                        "IOPS, bandwidth and ARPT mislead, and how BPS "
                        "measures T.");
  examples::parse_args(parser, argc, argv);

  std::printf(
      "BPS = B / T\n"
      "  B: blocks the APPLICATION required (512-byte units), all processes,\n"
      "     successful or not, concurrent or not.\n"
      "  T: wall time during which ANY I/O was in flight (union of access\n"
      "     intervals; idle gaps excluded, overlap counted once).\n\n");

  // ---- Figure 2: the T computation, drawn --------------------------------
  std::printf("Figure 2 — four requests and their overlapped time T:\n\n");
  timeline("R1", 0, 4);
  timeline("R2", 1, 2);
  timeline("R3", 2, 6);
  timeline("R4", 7, 9);
  std::printf("         0123456789 (ms)\n\n");

  std::vector<trace::TimeInterval> col_time{
      {0 * kMs, 4 * kMs}, {1 * kMs, 2 * kMs}, {2 * kMs, 6 * kMs},
      {7 * kMs, 9 * kMs}};
  const auto merged = metrics::merge_intervals(col_time);
  std::printf("merged busy periods:");
  for (const auto& iv : merged) {
    std::printf("  [%lld, %lld) ms", static_cast<long long>(iv.start_ns / kMs),
                static_cast<long long>(iv.end_ns / kMs));
  }
  std::printf("\nT = %.0f ms  (sum of durations would be %d ms — wrong: it"
              " double-counts overlap)\n",
              metrics::overlap_time_merged(col_time).seconds() * 1e3, 11);
  std::printf("idle time [6,7) ms is excluded from T.\n\n");

  // ---- The three blind spots ---------------------------------------------
  std::printf("Figure 1 — where each conventional metric goes blind:\n\n");

  {
    core::BpsMeter slow, fast;
    trace::TraceBuffer p(1);
    p.record(8, SimTime(0), SimTime(kMs));
    p.record(8, SimTime(kMs), SimTime(2 * kMs));
    slow.gather(p);
    trace::TraceBuffer q(1);
    q.record(16, SimTime(0), SimTime(kMs));
    fast.gather(q);
    std::printf(
        "(a) I/O size. Two 4 KiB requests in 2 ms vs one merged 8 KiB\n"
        "    request in 1 ms: IOPS calls them equal (1000 each), but the\n"
        "    merged case finishes in half the time.\n"
        "    BPS: %.0f vs %.0f blocks/s — the faster system wins.\n\n",
        slow.measure().bps, fast.measure().bps);
  }

  {
    std::printf(
        "(b) Data movement. Same two application requests, but one I/O\n"
        "    stack moves 2x the data (sieving holes, readahead waste).\n"
        "    File-system bandwidth doubles; the application sees nothing.\n"
        "    BPS counts application-required blocks only: unchanged.\n\n");
  }

  {
    core::BpsMeter serial, concurrent;
    trace::TraceBuffer p(1);
    p.record(8, SimTime(0), SimTime(kMs));
    p.record(8, SimTime(kMs), SimTime(2 * kMs));
    serial.gather(p);
    trace::TraceBuffer a(1), b(2);
    a.record(8, SimTime(0), SimTime(kMs));
    b.record(8, SimTime(0), SimTime(kMs));
    concurrent.gather(a);
    concurrent.gather(b);
    std::printf(
        "(c) Concurrency. Two requests back-to-back vs the same two in\n"
        "    parallel: each request still takes 1 ms, so ARPT = 1 ms in\n"
        "    both cases — but the parallel system finishes in half the time.\n"
        "    BPS: %.0f vs %.0f blocks/s (avg concurrency %.1f vs %.1f).\n",
        serial.measure().bps, concurrent.measure().bps,
        serial.measure().avg_concurrency, concurrent.measure().avg_concurrency);
  }
  return 0;
}
