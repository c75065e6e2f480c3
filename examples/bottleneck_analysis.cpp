// Bottleneck attribution: re-run the Figure-9 concurrency sweep and, at
// each point, ask the resource accounting WHY execution time is what it is.
// Watch the bottleneck migrate from the server disks (low concurrency) to
// the client's receive NIC (high concurrency) — the mechanism behind the
// curve's flattening, stated by name.
//
//   build/examples/bottleneck_analysis [--total=256M]
#include <cstdio>

#include "common/format.hpp"
#include "core/presets.hpp"
#include "core/resources.hpp"
#include "core/testbed.hpp"
#include "example_cli.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  Bytes total = 256 * kMiB;
  cli::ArgParser parser("bottleneck_analysis",
                        "The Figure-9 concurrency sweep with the busiest "
                        "resource named at each point.");
  examples::add_bytes(parser, "--total", &total,
                      "bytes read over all processes (default 256M)");
  examples::parse_args(parser, argc, argv);

  std::printf("IOzone throughput mode on 8-server PVFS (one file per "
              "server), %s total\n\n",
              human_bytes(total).c_str());

  TextTable t({"procs", "exec(s)", "bottleneck", "util", "runner-up", "util"});
  for (std::uint32_t procs = 1; procs <= 8; procs *= 2) {
    core::TestbedConfig tb = core::pvfs_testbed(8, pfs::DeviceKind::hdd, 1, 42);
    tb.layout_policy = core::one_server_per_file_policy(8);
    core::Testbed testbed(tb);

    workload::IozoneConfig wl;
    wl.file_size = total;
    wl.record_size = 16 * kKiB;
    wl.processes = procs;
    const workload::WorkloadPtr wkl = workload::make_workload(wl);
    const auto run = wkl->run(testbed.env());

    auto usage = core::resource_usage(testbed, run.exec_time);
    std::sort(usage.begin(), usage.end(),
              [](const core::ResourceUsage& a, const core::ResourceUsage& b) {
                return a.utilization > b.utilization;
              });
    t.add_row({std::to_string(procs), fmt_double(run.exec_time.seconds(), 3),
               usage[0].name, fmt_double(usage[0].utilization * 100, 1) + "%",
               usage.size() > 1 ? usage[1].name : "-",
               usage.size() > 1
                   ? fmt_double(usage[1].utilization * 100, 1) + "%"
                   : "-"});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Full breakdown at the saturated end.
  core::TestbedConfig tb = core::pvfs_testbed(8, pfs::DeviceKind::hdd, 1, 42);
  tb.layout_policy = core::one_server_per_file_policy(8);
  core::Testbed testbed(tb);
  workload::IozoneConfig wl;
  wl.file_size = total;
  wl.record_size = 16 * kKiB;
  wl.processes = 8;
  const workload::WorkloadPtr wkl = workload::make_workload(wl);
  const auto run = wkl->run(testbed.env());
  std::printf("top resources at 8 processes:\n%s\n",
              core::usage_table(core::resource_usage(testbed, run.exec_time),
                                6)
                  .c_str());
  std::printf("Low concurrency: each stream's server disk limits it. High\n"
              "concurrency: the single client NIC absorbs all eight streams\n"
              "and saturates — adding processes past that point cannot help,\n"
              "which is exactly where the Figure-10 curve flattens.\n");
  return 0;
}
