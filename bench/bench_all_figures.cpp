// The whole evaluation at a glance: runs every CC sweep (Sets 1-4 /
// Figures 4, 5, 6, 9, 11, 12), prints Table 1 (expected directions),
// Table 2 (the experiment sets), the per-set normalized CC values, and the
// paper's headline claim — BPS is the only metric with the correct
// correlation direction in every scenario, with |CC| ~0.9 on average.
// --csv prints only the per-set CC summary as CSV, --markdown only that
// summary as a markdown table.
#include "figure_bench.hpp"

using namespace bpsio;

int main(int argc, char** argv) {
  const bench::FigureArgs& args = bench::figure_args(argc, argv);
  const auto& d = args.defaults;

  if (!args.csv && !args.markdown) {
    std::printf("=== Table 1: expected correlation directions ===\n");
    bench::print_expected_directions();

    std::printf("=== Table 2: I/O access cases ===\n");
    TextTable t({"experiments", "description", "figure(s)"});
    t.add_row({"Set1", "various storage device", "Fig 4"});
    t.add_row({"Set2", "various I/O request size", "Fig 5, 6, 7, 8"});
    t.add_row({"Set3", "various I/O concurrency", "Fig 9, 10, 11"});
    t.add_row({"Set4", "various additional data movement", "Fig 12"});
    std::printf("%s\n", t.to_string().c_str());
  }

  struct Entry {
    const char* id;
    std::vector<core::RunSpec> specs;
  };
  std::vector<Entry> entries;
  entries.push_back({"Fig4  set1 devices", core::figures::fig4_devices(d)});
  entries.push_back({"Fig5  set2 hdd", core::figures::fig5_iosize_hdd(d)});
  entries.push_back({"Fig6  set2 ssd", core::figures::fig6_iosize_ssd(d)});
  entries.push_back(
      {"Fig9  set3a pure", core::figures::fig9_concurrency_pure(d)});
  entries.push_back(
      {"Fig11 set3b ior", core::figures::fig11_concurrency_ior(d)});
  entries.push_back(
      {"Fig12 set4 sieving", core::figures::fig12_datasieving(d)});

  TextTable summary({"experiment", "IOPS", "BW", "ARPT", "BPS"});
  double bps_sum = 0.0;
  bool bps_always_correct = true;
  int iops_wrong = 0, bw_wrong = 0, arpt_wrong = 0;
  for (auto& e : entries) {
    const auto sweep = core::figures::run_figure(e.specs, d);
    auto cell = [&](metrics::MetricKind k) {
      return fmt_double(sweep.report.of(k).normalized_cc, 3);
    };
    summary.add_row({e.id, cell(metrics::MetricKind::iops),
                     cell(metrics::MetricKind::bandwidth),
                     cell(metrics::MetricKind::arpt),
                     cell(metrics::MetricKind::bps)});
    const auto& bps = sweep.report.of(metrics::MetricKind::bps);
    bps_sum += bps.normalized_cc;
    bps_always_correct = bps_always_correct && bps.direction_correct;
    iops_wrong += sweep.report.of(metrics::MetricKind::iops).direction_correct ? 0 : 1;
    bw_wrong += sweep.report.of(metrics::MetricKind::bandwidth).direction_correct ? 0 : 1;
    arpt_wrong += sweep.report.of(metrics::MetricKind::arpt).direction_correct ? 0 : 1;
  }

  if (args.csv) {
    std::printf("%s", summary.to_csv().c_str());
    return 0;
  }
  if (args.markdown) {
    std::printf("%s", summary.to_markdown().c_str());
    return 0;
  }
  std::printf("=== Normalized CC values per experiment set ===\n%s\n",
              summary.to_string().c_str());
  std::printf("BPS correct in all sets: %s (paper: yes)\n",
              bps_always_correct ? "yes" : "NO");
  std::printf("mean BPS |CC| across sets: %.3f (paper headline: 0.91)\n",
              bps_sum / static_cast<double>(entries.size()));
  std::printf("sets where each conventional metric misleads: IOPS %d, BW %d, "
              "ARPT %d (paper: each misleads somewhere)\n",
              iops_wrong, bw_wrong, arpt_wrong);
  return 0;
}
