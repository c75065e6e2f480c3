// What-if storage study via trace replay: record an application's I/O on
// one testbed, then replay the trace (closed loop — same application,
// preserved think gaps) against candidate storage configurations and
// compare the BPS each would deliver. This is the capacity-planning workflow
// a trace-based toolkit enables.
//
//   build/examples/whatif_replay [--file=64M] [--record=64k] [--procs=2]
#include <cstdio>

#include "common/format.hpp"
#include "core/bps_meter.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "example_cli.hpp"
#include "metrics/calculators.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

namespace {

struct Candidate {
  const char* name;
  core::TestbedConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  long long procs_arg = 2;
  Bytes file = 64 * kMiB;
  Bytes record = 64 * kKiB;
  cli::ArgParser parser("whatif_replay",
                        "Record an application on one HDD, then replay its "
                        "trace against candidate storage systems.");
  examples::add_bytes(parser, "--file", &file,
                      "bytes the application reads (default 64M)");
  examples::add_bytes(parser, "--record", &record,
                      "bytes per read call (default 64k)");
  parser.add_int("--procs", &procs_arg, 1, examples::kMaxCount, "N",
                 "reader processes (default 2)");
  examples::parse_args(parser, argc, argv);
  const auto procs = static_cast<std::uint32_t>(procs_arg);

  // Step 1: capture the application on the current system (a single HDD).
  workload::IozoneConfig app;
  app.file_size = file;
  app.record_size = record;
  app.processes = procs;
  app.think = SimDuration::from_ms(2.0);  // it computes between reads

  core::Testbed current(core::local_hdd_testbed(42));
  const workload::WorkloadPtr wkl = workload::make_workload(app);
  const auto baseline = wkl->run(current.env());
  std::printf("recorded: %zu accesses, %u procs, exec %.3fs, BPS %.0f on %s\n\n",
              baseline.collector.record_count(), procs,
              baseline.exec_time.seconds(), metrics::bps(baseline.collector),
              current.describe().c_str());

  // Step 2: replay the captured trace against candidate systems.
  std::vector<Candidate> candidates;
  candidates.push_back({"hdd (today)", core::local_hdd_testbed(42)});
  candidates.push_back({"ssd upgrade", core::local_ssd_testbed(42)});
  candidates.push_back(
      {"pvfs 2 servers", core::pvfs_testbed(2, pfs::DeviceKind::hdd, 1, 42)});
  candidates.push_back(
      {"pvfs 8 servers", core::pvfs_testbed(8, pfs::DeviceKind::hdd, 1, 42)});

  TextTable t({"candidate", "exec(s)", "T(s)", "BPS", "exec speedup"});
  double exec0 = 0;
  for (const auto& candidate : candidates) {
    core::Testbed testbed(candidate.config);
    workload::ReplayConfig replay_cfg;
    replay_cfg.records = baseline.collector.records();
    replay_cfg.mode = workload::ReplayConfig::Mode::closed_loop;
    const workload::WorkloadPtr replay = workload::make_workload(replay_cfg);
    const auto run = replay->run(testbed.env());
    const double exec = run.exec_time.seconds();
    if (exec0 == 0) exec0 = exec;
    t.add_row({candidate.name, fmt_double(exec, 3),
               fmt_double(metrics::overlapped_io_time(run.collector).seconds(), 3),
               fmt_double(metrics::bps(run.collector), 0),
               fmt_double(exec0 / exec, 2) + "x"});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Replay preserves the recorded think gaps, so execution-time gains\n"
      "saturate once I/O stops being the bottleneck (Amdahl) — while BPS\n"
      "keeps separating the I/O systems themselves. Note the single-stream\n"
      "replay cannot exploit 8 servers much beyond 2: parallelism needs\n"
      "concurrency the recorded application does not have.\n");
  return 0;
}
