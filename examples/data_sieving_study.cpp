// Set-4 style exploration: noncontiguous I/O with data sieving (the Hpio
// scenario), sweeping the region spacing and comparing sieving on/off —
// the experiment where bandwidth ranks systems backwards and BPS does not.
//
//   build/examples/data_sieving_study [--regions=16384] [--procs=4]
//                                     [--servers=4] [--size=256]
#include <cstdio>

#include "common/format.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "example_cli.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  long long regions_arg = 16384;
  long long procs_arg = 4;
  long long servers_arg = 4;
  Bytes region_size = 256;
  cli::ArgParser parser("data_sieving_study",
                        "Hpio-style noncontiguous reads with data sieving "
                        "on and off over a sweep of region spacings.");
  parser.add_int("--regions", &regions_arg, 1, INT32_MAX, "N",
                 "regions read in total (default 16384)");
  parser.add_int("--procs", &procs_arg, 1, examples::kMaxCount, "N",
                 "reader processes (default 4)");
  parser.add_int("--servers", &servers_arg, 1, examples::kMaxCount, "N",
                 "HDD-backed I/O servers (default 4)");
  examples::add_bytes(parser, "--size", &region_size,
                      "bytes per region (default 256)");
  examples::parse_args(parser, argc, argv);
  const auto regions = static_cast<std::uint64_t>(regions_arg);
  const auto procs = static_cast<std::uint32_t>(procs_arg);
  const auto servers = static_cast<std::uint32_t>(servers_arg);

  std::printf("Hpio-style noncontiguous read: %llu regions x %s, %u procs, "
              "%u HDD servers\n\n",
              static_cast<unsigned long long>(regions),
              human_bytes(region_size).c_str(), procs, servers);

  TextTable table({"spacing", "mode", "exec(s)", "BW(MB/s)", "BPS",
                   "moved/app"});
  for (const Bytes spacing : {Bytes{8}, Bytes{64}, Bytes{512}, Bytes{4096}}) {
    for (const bool sieving : {true, false}) {
      core::RunSpec spec;
      spec.label = "hpio";
      spec.testbed = [servers, procs](std::uint64_t seed) {
        return core::pvfs_testbed(servers, pfs::DeviceKind::hdd, procs, seed);
      };
      spec.workload = [&]() -> std::unique_ptr<workload::Workload> {
        workload::HpioConfig wl;
        wl.region_count = regions;
        wl.region_size = region_size;
        wl.region_spacing = spacing;
        wl.processes = procs;
        wl.sieving.enabled = sieving;
        wl.regions_per_call = 8192;
        return workload::make_workload(wl);
      };
      const auto s = core::run_once(spec, 42);
      table.add_row({std::to_string(spacing) + "B",
                     sieving ? "sieving" : "naive",
                     fmt_double(s.exec_time_s, 3),
                     fmt_double(s.bandwidth_bps / 1e6, 1),
                     fmt_double(s.bps, 0),
                     fmt_double(static_cast<double>(s.moved_bytes) /
                                    static_cast<double>(s.app_bytes),
                                2) + "x"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Read it columnwise:\n"
      "  * sieving wins execution time at every spacing (fewer, larger\n"
      "    transfers), and BPS agrees with that ranking;\n"
      "  * bandwidth REWARDS the extra hole traffic (moved/app > 1) — at\n"
      "    larger spacings the slower-per-useful-byte configuration posts\n"
      "    the higher BW. That is the Figure-12 inversion.\n");
  return 0;
}
