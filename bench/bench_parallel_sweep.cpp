// Serial vs concurrent sweep runner on the Figure-9 concurrency study.
//
// The CC methodology re-runs a whole simulation per (sweep point, seed)
// pair — repeats * points independent single-threaded Simulators, which is
// exactly the shape a thread pool eats. This harness times the same sweep
// at increasing pool widths, checks every width reproduces the serial
// metrics bit-for-bit (determinism is part of the contract, not a separate
// test-only property), and prints the speedup column.
//
//   bench_parallel_sweep [--scale=1.0] [--repeats=3] [--seed=42]
//                        [--threads=8]   # max pool width; sweeps 1,2,4..max
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "tools/cli.hpp"

using namespace bpsio;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool samples_identical(const std::vector<metrics::MetricSample>& a,
                       const std::vector<metrics::MetricSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].exec_time_s != b[i].exec_time_s || a[i].bps != b[i].bps ||
        a[i].iops != b[i].iops || a[i].arpt_s != b[i].arpt_s ||
        a[i].bandwidth_bps != b[i].bandwidth_bps ||
        a[i].moved_bytes != b[i].moved_bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  long long repeats = 3;
  long long seed = 42;
  long long threads = 8;

  cli::ArgParser parser("bench_parallel_sweep",
                        "Time the fig9 sweep at growing pool widths and "
                        "verify every width reproduces the serial metrics "
                        "bit-for-bit.");
  parser.add_positive_double("--scale", &scale, "FACTOR",
                             "workload size multiplier (default 1.0)");
  parser.add_int("--repeats", &repeats, 1, 1000, "N",
                 "seeds averaged per sweep point (default 3)");
  parser.add_int("--seed", &seed, 0, INT64_MAX, "S",
                 "base RNG seed (default 42)");
  parser.add_int("--threads", &threads, 0, 1024, "N",
                 "max pool width, sweeps 1,2,4..max; 0 = all cores "
                 "(default 8)");
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  core::figures::FigureDefaults d;
  d.scale = scale;
  d.repeats = static_cast<std::uint32_t>(repeats);
  d.base_seed = static_cast<std::uint64_t>(seed);
  const std::size_t max_threads = threads <= 0
                                      ? ThreadPool::hardware_threads()
                                      : static_cast<std::size_t>(threads);

  const auto specs = core::figures::fig9_concurrency_pure(d);
  std::printf("=== concurrent sweep runner: fig9, %zu points x %u repeats "
              "(seed=%llu) ===\n",
              specs.size(), d.repeats,
              static_cast<unsigned long long>(d.base_seed));
  std::printf("hardware threads: %zu\n\n", ThreadPool::hardware_threads());

  core::SweepOptions base;
  base.repeats = d.repeats;
  base.base_seed = d.base_seed;

  core::SweepResult serial;
  const double t_serial =
      wall_seconds([&] { serial = core::run_sweep(specs, base); });

  TextTable table({"threads", "wall(s)", "speedup", "bit-identical"});
  table.add_row({"1", fmt_double(t_serial, 3), "1.00", "baseline"});
  for (std::size_t width = 2; width <= max_threads; width *= 2) {
    core::SweepOptions opt = base;
    opt.threads = width;
    core::SweepResult parallel;
    const double t =
        wall_seconds([&] { parallel = core::run_sweep(specs, opt); });
    const bool same = samples_identical(serial.samples, parallel.samples);
    table.add_row({std::to_string(width), fmt_double(t, 3),
                   fmt_double(t_serial / t, 2), same ? "yes" : "NO !!"});
    if (!same) {
      std::printf("ERROR: threads=%zu diverged from the serial sweep\n",
                  width);
      return 1;
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("BPS normalized CC (serial reference): %s\n",
              fmt_double(serial.report.of(metrics::MetricKind::bps)
                             .normalized_cc, 3).c_str());
  return 0;
}
