// Experiment machinery: run a workload on a testbed, boil it down to one
// MetricSample, sweep a parameter across points, repeat with seeds and
// average (the paper: "We ran each set of experiments 5 times, and the
// average was used as the results"), and correlate each metric with
// execution time.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "metrics/calculators.hpp"
#include "metrics/cc_study.hpp"
#include "workload/workload.hpp"

namespace bpsio::core {

/// One sweep point: how to build the machine and the application.
struct RunSpec {
  std::string label;
  /// Built fresh per repetition; receives the repetition seed.
  std::function<TestbedConfig(std::uint64_t seed)> testbed;
  std::function<std::unique_ptr<workload::Workload>()> workload;
};

/// Execute one run on a fresh testbed; returns the full metric sample.
metrics::MetricSample run_once(const RunSpec& spec, std::uint64_t seed);

/// How stable a metric's normalized CC is across repetition seeds —
/// evidence that the sweep's verdict is not a lucky draw.
struct CcStability {
  metrics::MetricKind kind{};
  double min_normalized_cc = 0;
  double max_normalized_cc = 0;
  /// True when the correlation direction agrees across every seed.
  bool direction_stable = true;
};

struct SweepResult {
  std::vector<std::string> labels;
  std::vector<metrics::MetricSample> samples;  ///< averaged over repetitions
  metrics::CorrelationReport report;
  /// One entry per metric (IOPS, BW, ARPT, BPS); empty for repeats < 2.
  std::vector<CcStability> stability;

  const CcStability* stability_of(metrics::MetricKind kind) const;

  /// Per-point table (label, exec time, all four metrics).
  std::string samples_table() const;
  /// Seed-stability table (empty string when unavailable).
  std::string stability_table() const;
};

/// Knobs for a sweep, including the concurrent runner.
struct SweepOptions {
  std::uint32_t repeats = 5;
  std::uint64_t base_seed = 42;
  /// >1: run the repeats*specs independent (spec, seed) simulations on a
  /// thread pool of this many workers (0 = hardware threads). Each run gets
  /// a fresh Testbed and its deterministic per-run seed, and writes into a
  /// pre-assigned slot, so results are bit-identical to threads=1 — the
  /// concurrency-determinism regression test asserts this. RunSpec factories
  /// must be safe to invoke concurrently (build fresh state, don't mutate
  /// captures).
  std::size_t threads = 1;
  /// Optional progress hook: called after each completed (spec, seed) run
  /// with (completed, total). Invocations are serialized by an internal
  /// annotated mutex (so the callback itself needs no locking), may come
  /// from worker threads, and `completed` is strictly increasing.
  std::function<void(std::size_t completed, std::size_t total)> progress;
};

/// Run every spec `repeats` times (seeds base_seed..base_seed+repeats-1),
/// average pointwise, and correlate metric values against execution time.
/// This is the only run_sweep: the old positional (specs, repeats, seed)
/// convenience overload was removed (the bpsio-lint `legacy-run-sweep` rule
/// keeps call sites off it) — default-constructed SweepOptions carries the
/// same defaults it had.
SweepResult run_sweep(const std::vector<RunSpec>& specs,
                      const SweepOptions& options = {});

}  // namespace bpsio::core
