// Quickstart: measure BPS (and the conventional metrics) for a simple
// workload on a simulated parallel file system.
//
//   build/examples/quickstart [--servers=4] [--procs=4] [--file=256M]
//                             [--record=64k] [--seed=42]
//
// This is the ~30-line tour of the public API: build a testbed, run a
// workload, feed the gathered trace to BpsMeter, print the reading.
#include <cstdio>

#include "common/format.hpp"
#include "core/bps_meter.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "example_cli.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  long long servers = 4;
  long long procs = 4;
  long long seed = 42;
  Bytes file = 256 * kMiB;
  Bytes record = 64 * kKiB;
  cli::ArgParser parser("quickstart",
                        "BPS and the conventional metrics of IOzone-style "
                        "readers on a simulated PVFS cluster.");
  parser.add_int("--servers", &servers, 1, examples::kMaxCount, "N",
                 "HDD-backed I/O servers (default 4)");
  parser.add_int("--procs", &procs, 1, examples::kMaxCount, "N",
                 "reader processes, one client node each (default 4)");
  examples::add_bytes(parser, "--file", &file,
                      "bytes read, split over the processes (default 256M)");
  examples::add_bytes(parser, "--record", &record,
                      "bytes per read call (default 64k)");
  parser.add_int("--seed", &seed, 0, INT64_MAX, "S",
                 "testbed seed (default 42)");
  examples::parse_args(parser, argc, argv);

  // 1. A testbed: PVFS2-like cluster with N HDD-backed I/O servers.
  auto testbed_cfg = core::pvfs_testbed(
      static_cast<std::uint32_t>(servers), pfs::DeviceKind::hdd,
      /*clients=*/static_cast<std::uint32_t>(procs),
      static_cast<std::uint64_t>(seed));
  core::Testbed testbed(testbed_cfg);
  testbed.drop_caches();  // paper discipline: cold caches

  // 2. A workload: IOzone-style concurrent sequential readers.
  workload::IozoneConfig wl;
  wl.mode = workload::IozoneConfig::Mode::read;
  wl.file_size = file;
  wl.record_size = record;
  wl.processes = static_cast<std::uint32_t>(procs);
  const workload::WorkloadPtr wkl = workload::make_workload(wl);
  const workload::RunResult run = wkl->run(testbed.env());

  // 3. The BPS methodology: gather all processes' records, measure.
  core::BpsMeter meter;
  meter.gather(run.collector.records());
  const core::BpsReading reading = meter.measure();

  std::printf("testbed : %s\n", testbed.describe().c_str());
  std::printf("workload: %u procs x %s, %s records\n", wl.processes,
              human_bytes(wl.file_size / wl.processes).c_str(),
              human_bytes(wl.record_size).c_str());
  std::printf("exec    : %.3f s\n", run.exec_time.seconds());
  std::printf("%s\n", reading.to_string().c_str());

  // Side-by-side with the conventional metrics.
  const auto sample = meter.measure_all(testbed.bytes_moved(), run.exec_time);
  std::printf("metrics : %s\n", sample.to_string().c_str());
  return 0;
}
