// Set-3 style exploration: how the four metrics behave as an IOR-like
// parallel workload scales from 1 to N processes over a striped PFS — the
// scenario where average response time stops tracking overall performance.
//
//   build/examples/cluster_scaling [--servers=8] [--max-procs=16]
//                                  [--file=128M] [--transfer=64k]
#include <cstdio>

#include "common/format.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "example_cli.hpp"
#include "metrics/cc_study.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  long long servers_arg = 8;
  long long max_procs_arg = 16;
  Bytes file = 128 * kMiB;
  Bytes transfer = 64 * kKiB;
  cli::ArgParser parser("cluster_scaling",
                        "The four metrics of an IOR-like shared-file read "
                        "as it scales from 1 to N processes.");
  parser.add_int("--servers", &servers_arg, 1, examples::kMaxCount, "N",
                 "HDD-backed I/O servers (default 8)");
  parser.add_int("--max-procs", &max_procs_arg, 1, examples::kMaxCount, "N",
                 "largest process count; the sweep doubles from 1 "
                 "(default 16)");
  examples::add_bytes(parser, "--file", &file,
                      "shared file size (default 128M)");
  examples::add_bytes(parser, "--transfer", &transfer,
                      "bytes per transfer (default 64k)");
  examples::parse_args(parser, argc, argv);
  const auto servers = static_cast<std::uint32_t>(servers_arg);
  const auto max_procs = static_cast<std::uint32_t>(max_procs_arg);

  std::printf("IOR-like shared-file read: %s over %u HDD servers, %s "
              "transfers, 1..%u processes\n\n",
              human_bytes(file).c_str(), servers,
              human_bytes(transfer).c_str(), max_procs);

  std::vector<core::RunSpec> specs;
  for (std::uint32_t procs = 1; procs <= max_procs; procs *= 2) {
    core::RunSpec spec;
    spec.label = std::to_string(procs) + " procs";
    spec.testbed = [servers, procs](std::uint64_t seed) {
      return core::pvfs_testbed(servers, pfs::DeviceKind::hdd, procs, seed);
    };
    spec.workload = [file, transfer, procs]() {
      workload::IorConfig wl;
      wl.file_size = file;
      wl.transfer_size = transfer;
      wl.processes = procs;
      return workload::make_workload(wl);
    };
    specs.push_back(std::move(spec));
  }

  core::SweepOptions sweep_opt;
  sweep_opt.repeats = 3;
  sweep_opt.base_seed = 42;
  const auto sweep = core::run_sweep(specs, sweep_opt);
  std::printf("%s\n", sweep.samples_table().c_str());
  std::printf("%s\n", sweep.report.to_string().c_str());
  std::printf(
      "What to notice: execution time falls as processes are added (more\n"
      "servers busy in parallel) — IOPS, BW and BPS all rise with it. But\n"
      "per-request response time RISES (queueing at servers and NICs), so\n"
      "ARPT 'worsens' while the system gets faster: its correlation with\n"
      "execution time points the wrong way, exactly as in Figures 9-11.\n");
  return 0;
}
