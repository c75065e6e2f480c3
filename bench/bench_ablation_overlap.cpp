// Ablation: BPS computed with the paper's Figure-3 algorithm vs the
// library's T (DESIGN.md decision 1). The paper column transcribes Figure 3
// (overlap_time_paper over col_time); the merged column is what every tool
// reports, OverlapConsumer's sort-and-merge union. Both must agree on real
// traces; this bench runs real workloads and compares.
#include "figure_bench.hpp"
#include "core/presets.hpp"
#include "metrics/overlap.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  const auto d = bench::defaults_from_args(argc, argv);
  std::printf("=== Ablation: Figure-3 algorithm vs sort-and-merge ===\n\n");

  TextTable t({"workload", "T paper (s)", "T merged (s)", "BPS paper",
               "BPS merged", "agree"});
  for (const std::uint32_t procs : {1u, 4u, 16u}) {
    core::RunSpec spec;
    spec.label = "ior-" + std::to_string(procs);
    spec.testbed = [procs](std::uint64_t s) {
      return core::pvfs_testbed(8, pfs::DeviceKind::hdd, procs, s);
    };
    const auto file = static_cast<Bytes>(64.0 * d.scale * (1 << 20));
    spec.workload = [procs, file]() {
      workload::IorConfig cfg;
      cfg.file_size = file;
      cfg.transfer_size = 64 * kKiB;
      cfg.processes = procs;
      return workload::make_workload(cfg);
    };

    // Rebuild the testbed and workload to recover the raw trace.
    core::Testbed testbed(spec.testbed(d.base_seed));
    auto workload = spec.workload();
    const auto run = workload->run(testbed.env());

    const auto t_paper = metrics::overlap_time_paper(run.collector.col_time());
    const auto t_merged = metrics::overlapped_io_time(run.collector);
    const double bps_paper =
        t_paper.ns() > 0 ? static_cast<double>(run.collector.total_blocks()) /
                               t_paper.seconds()
                         : 0.0;
    const double bps_merged = metrics::bps(run.collector);
    t.add_row({spec.label, fmt_double(t_paper.seconds(), 6),
               fmt_double(t_merged.seconds(), 6), fmt_double(bps_paper, 1),
               fmt_double(bps_merged, 1),
               t_paper == t_merged ? "yes" : "NO"});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
