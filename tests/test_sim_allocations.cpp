// Heap allocations per simulated access, counted instead of timed.
//
// This binary replaces the global operator new/delete with counting
// versions and runs one zoo pass per testbed (all nine scenarios at scale 4,
// seed 42, each on a fresh testbed set up as `bpsio_zoo sim` sets it up),
// counting the allocations made while the workload runs. Unlike a rate, the
// count is deterministic and identical on every host, so it can gate the
// simulator's event core: each testbed must stay at or below a quarter of
// the allocations per access that the std::function-based event core made
// (the baseline column, measured on that code and kept here).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "workload/registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bpsio {
namespace {

struct PassCount {
  std::uint64_t accesses = 0;
  std::uint64_t allocations = 0;
};

/// One `bpsio_zoo sim --scale=4` pass (every scenario, seed 42) on testbeds
/// built by `make_testbed(process_count)`.
template <class MakeTestbed>
PassCount zoo_pass(MakeTestbed make_testbed) {
  PassCount total;
  for (const workload::zoo::ScenarioInfo& info : workload::zoo::scenarios()) {
    workload::zoo::ZooParams zoo;
    zoo.scale = 4.0;
    const auto plan = workload::zoo::build_plan(info.name, zoo);
    EXPECT_TRUE(plan.ok()) << info.name;
    if (!plan.ok()) continue;
    workload::Params params;
    params.set("scale", "4");
    params.set("seed", "42");
    auto wl = workload::make_workload("zoo." + info.name, params);
    EXPECT_TRUE(wl.ok()) << info.name;
    if (!wl.ok()) continue;
    core::Testbed testbed(make_testbed(plan->process_count()));
    testbed.drop_caches();
    const std::uint64_t before = g_allocations.load();
    const workload::RunResult run = (*wl)->run(testbed.env());
    total.allocations += g_allocations.load() - before;
    total.accesses += run.collector.record_count();
  }
  return total;
}

struct Budget {
  const char* testbed;
  core::TestbedConfig (*config)(std::uint32_t processes);
  std::uint64_t accesses;
  std::uint64_t baseline_allocations;

  friend void PrintTo(const Budget& b, std::ostream* os) { *os << b.testbed; }
};

const Budget kBudgets[] = {
    {"ssd", [](std::uint32_t) { return core::local_ssd_testbed(42); }, 15458,
     473710},
    {"hdd", [](std::uint32_t) { return core::local_hdd_testbed(42); }, 15458,
     456115},
    {"pvfs",
     [](std::uint32_t processes) {
       return core::pvfs_testbed(4, pfs::DeviceKind::hdd, processes, 42);
     },
     15458, 1997462},
};

class SimAllocations : public ::testing::TestWithParam<Budget> {};

TEST_P(SimAllocations, AtMostAQuarterOfTheBaselinePerAccess) {
  const Budget& budget = GetParam();
  const PassCount pass = zoo_pass(budget.config);
  std::printf("%s: %llu allocations over %llu accesses (%.2f per access; "
              "baseline %llu)\n",
              budget.testbed, static_cast<unsigned long long>(pass.allocations),
              static_cast<unsigned long long>(pass.accesses),
              static_cast<double>(pass.allocations) /
                  static_cast<double>(pass.accesses ? pass.accesses : 1),
              static_cast<unsigned long long>(budget.baseline_allocations));
  // Same accesses as the baseline pass, so comparing totals compares
  // allocations per access.
  EXPECT_EQ(pass.accesses, budget.accesses);
  EXPECT_LE(4 * pass.allocations, budget.baseline_allocations);
}

INSTANTIATE_TEST_SUITE_P(Zoo, SimAllocations, ::testing::ValuesIn(kBudgets),
                         [](const auto& param_info) {
                           return std::string(param_info.param.testbed);
                         });

}  // namespace
}  // namespace bpsio
