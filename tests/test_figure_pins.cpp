// Golden per-point values of the paper's figure sweeps.
//
// test_figures asserts each sweep's correlation directions and shapes, and
// bench_all_figures prints only CCs rounded to three decimals, so neither
// notices a sweep point that moves by less than its shape allows. These pins
// do: every sample's T (overlapped I/O time), B and execution time, in
// integer ns and blocks, of each CC sweep run through run_figure at
// scale=0.25 and repeats=2 on one thread (samples are the mean of the two
// repetition seeds). Every layer of the simulated stack feeds them. Update
// deliberately when the simulated stack is meant to change, never to quiet a
// failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/figures.hpp"

namespace bpsio::core::figures {
namespace {

struct PointPin {
  std::int64_t t_ns;
  std::uint64_t blocks;
  std::int64_t exec_ns;
};

struct FigurePins {
  const char* name;
  std::vector<RunSpec> (*build)(const FigureDefaults&);
  std::vector<PointPin> points;
};

FigureDefaults pinned_defaults() {
  FigureDefaults d;
  d.scale = 0.25;
  d.repeats = 2;
  d.threads = 1;
  return d;
}

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

const FigurePins kFigures[] = {
    {"fig4_devices",
     fig4_devices,
     {
         {647361623, 131072, 647361623},  // hdd
         {273063284, 131072, 273063284},  // ssd
         {1260700423, 131072, 1260700423},  // pvfs1
         {950831846, 131072, 950831846},  // pvfs2
         {795904708, 131072, 795904708},  // pvfs4
         {719642960, 131072, 719642960},  // pvfs8
     }},
    {"fig5_iosize_hdd",
     fig5_iosize_hdd,
     {
         {3913747139, 131072, 3913747139},  // 4KiB
         {2275351537, 131072, 2275351537},  // 8KiB
         {1456157732, 131072, 1456157732},  // 16KiB
         {1046560825, 131072, 1046560825},  // 32KiB
         {841761308, 131072, 841761308},  // 64KiB
         {739361522, 131072, 739361522},  // 128KiB
         {688161831, 131072, 688161831},  // 256KiB
         {662561874, 131072, 662561874},  // 512KiB
         {649761607, 131072, 649761607},  // 1MiB
         {648161607, 131072, 648161607},  // 2MiB
         {647361623, 131072, 647361623},  // 4MiB
         {646961631, 131072, 646961631},  // 8MiB
     }},
    {"fig6_iosize_ssd",
     fig6_iosize_ssd,
     {
         {2308450133, 131072, 2308450133},  // 4KiB
         {1407385000, 131072, 1407385000},  // 8KiB
         {956621772, 131072, 956621772},  // 16KiB
         {731355064, 131072, 731355064},  // 32KiB
         {618592917, 131072, 618592917},  // 64KiB
         {562546038, 131072, 562546038},  // 128KiB
         {534829120, 131072, 534829120},  // 256KiB
         {521058130, 131072, 521058130},  // 512KiB
         {515198353, 131072, 515198353},  // 1MiB
         {274656372, 131072, 274656372},  // 2MiB
         {273063284, 131072, 273063284},  // 4MiB
         {271924013, 131072, 271924013},  // 8MiB
     }},
    {"fig9_concurrency_pure",
     fig9_concurrency_pure,
     {
         {3604280356, 131072, 3604280356},  // 1
         {1802270682, 131072, 1802270682},  // 2
         {1202019453, 131073, 1202019453},  // 3
         {901483030, 131072, 901483030},  // 4
         {721773033, 131075, 721773033},  // 5
         {601568795, 131076, 601568795},  // 6
         {574721687, 131075, 574721687},  // 7
         {574319172, 131072, 574319172},  // 8
     }},
    {"fig11_concurrency_ior",
     fig11_concurrency_ior,
     {
         {2239127488, 131072, 2239127488},  // 1
         {3593064977, 131072, 3593064977},  // 2
         {1917315549, 131072, 1917315549},  // 4
         {1113669725, 131072, 1113669725},  // 8
         {877922502, 131072, 877922502},  // 16
         {869988561, 131072, 869988561},  // 32
     }},
    {"fig12_datasieving",
     fig12_datasieving,
     {
         {28477431, 8192, 28477431},  // 8B
         {29348838, 8192, 29348838},  // 16B
         {30508995, 8192, 30508995},  // 32B
         {32816183, 8192, 32816183},  // 64B
         {37439316, 8192, 37439316},  // 128B
         {46685584, 8192, 46685584},  // 256B
         {65178128, 8192, 65178128},  // 512B
         {106635322, 8192, 106635322},  // 1024B
         {169178194, 8192, 169178194},  // 2048B
         {284268516, 8192, 284268516},  // 4096B
     }},
};

class FigurePoints : public ::testing::TestWithParam<FigurePins> {};

TEST_P(FigurePoints, EverySampleMatchesGoldenTBAndExecTime) {
  const FigurePins& golden = GetParam();
  const FigureDefaults d = pinned_defaults();
  const SweepResult sweep = run_figure(golden.build(d), d);
  ASSERT_EQ(sweep.samples.size(), golden.points.size()) << golden.name;
  for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
    const auto& s = sweep.samples[i];
    const PointPin& want = golden.points[i];
    EXPECT_EQ(to_ns(s.io_time_s), want.t_ns) << sweep.labels[i];
    EXPECT_EQ(s.app_blocks, want.blocks) << sweep.labels[i];
    EXPECT_EQ(to_ns(s.exec_time_s), want.exec_ns) << sweep.labels[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, FigurePoints, ::testing::ValuesIn(kFigures),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace bpsio::core::figures
