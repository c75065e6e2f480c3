// Time-resolved BPS: watch a bursty application alternate between I/O
// phases and compute phases, and see what a single whole-run number hides.
//
// The workload reads in three bursts separated by compute gaps, with rising
// concurrency per burst. Whole-run BPS averages over everything; the
// timeline shows the per-phase delivery rate and the concurrency profile
// shows how much of the busy time ran at each overlap level.
//
//   build/examples/phase_analysis [--window=0.25]   (seconds)
#include <cstdio>

#include "core/bps_meter.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "example_cli.hpp"
#include "metrics/timeline.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  std::int64_t window_ns = 250'000'000;
  cli::ArgParser parser("phase_analysis",
                        "Windowed BPS and the concurrency profile of a "
                        "bursty application.");
  parser.add_duration("--window", &window_ns, cli::kNsPerSec, "SECS",
                      "timeline window in seconds (default 0.25)");
  examples::parse_args(parser, argc, argv);

  core::Testbed testbed(core::pvfs_testbed(4, pfs::DeviceKind::hdd, 1, 42));

  // Three bursts with increasing concurrency, separated by compute phases.
  // Each burst is an IOzone throughput run; gaps come from running the
  // simulator forward between bursts.
  trace::TraceCollector all;
  auto& sim = testbed.simulator();
  for (std::uint32_t burst = 1; burst <= 3; ++burst) {
    workload::IozoneConfig wl;
    wl.file_size = 24 * kMiB;
    wl.record_size = 64 * kKiB;
    wl.processes = burst * 2;  // 2, 4, 6 concurrent readers
    wl.path_prefix = "/burst" + std::to_string(burst);
    const workload::WorkloadPtr wkl = workload::make_workload(wl);
    const auto run = wkl->run(testbed.env());
    all.gather(run.collector.records());
    // Compute phase: 1 simulated second of no I/O.
    bool tick = false;
    sim.schedule_after(SimDuration::from_seconds(1.0), [&]() { tick = true; });
    sim.run();
    (void)tick;
  }

  core::BpsMeter meter;
  meter.gather(all.records());
  const auto whole = meter.measure();
  std::printf("whole-run view: %s\n\n", whole.to_string().c_str());

  const auto tl = metrics::build_timeline(all, SimDuration(window_ns));
  if (!tl.ok()) {
    std::fprintf(stderr, "phase_analysis: %s\n",
                 tl.error().to_string().c_str());
    return 1;
  }
  std::printf("timeline (%.0f ms windows):\n%s\n",
              static_cast<double>(window_ns) / 1e6, tl->to_string().c_str());
  std::printf("peak windowed BPS: %.0f (%.1fx the whole-run average)\n",
              tl->peak_bps(),
              whole.bps > 0 ? tl->peak_bps() / whole.bps : 0.0);
  std::printf("idle windows: %.0f%%\n\n", tl->idle_window_fraction() * 100.0);

  const auto profile = metrics::concurrency_profile(all);
  std::printf("concurrency profile (share of busy time at each level):\n");
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const int bar = static_cast<int>(profile[i] * 40.0 + 0.5);
    std::printf("  %2zu streams: %5.1f%% %s\n", i + 1, profile[i] * 100.0,
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  std::printf(
      "\nThe whole-run BPS undersells the bursts and oversells the gaps;\n"
      "the windowed series separates the three phases cleanly. This is the\n"
      "measurement workflow the paper's conclusion sketches for evaluating\n"
      "'different I/O optimization mechanisms and their combinations'.\n");
  return 0;
}
