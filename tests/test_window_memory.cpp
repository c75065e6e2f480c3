// The live windows' memory does not grow with the records inside them.
//
// This binary replaces the global operator new/delete with versions that
// track the live heap bytes, feeds 10^3 and then 10^6 records of one
// start-ordered, overlapping stream, all inside one 10 s window, to a
// SlidingWindowMetrics, a two-pid MetricAggregator and a one-tenant
// TenantShards, and compares the heap bytes each holds at the two sizes.
// Count, B and the response sum are per-tick sums and the stream's union
// is one interval, so the two must agree within a few KiB; a store that
// keeps state per record holds megabytes more at 10^6.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "agent/aggregator.hpp"
#include "collector/tenant_shards.hpp"
#include "metrics/online.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* tracked_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void tracked_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }

namespace bpsio {
namespace {

using trace::IoRecord;

const SimDuration kWindow = SimDuration::from_seconds(10);
constexpr std::size_t kFrame = 500;
constexpr std::int64_t kSlack = 4096;

/// Feeds `records` records to `sink` in frames of kFrame: record i starts
/// at 1 us steps from 5 s and lasts 10 ms, so the stream is start-ordered
/// and overlapping and 10^6 records span about 1 s. Frames alternate
/// between pids 1 and 2, each pid's records overlapping the same way.
void feed(std::size_t records,
          const std::function<void(std::span<const IoRecord>)>& sink) {
  std::vector<IoRecord> frame;
  frame.reserve(kFrame);
  for (std::size_t at = 0; at < records; at += kFrame) {
    frame.clear();
    const auto pid = static_cast<std::uint32_t>(1 + (at / kFrame) % 2);
    for (std::size_t i = at; i < at + kFrame && i < records; ++i) {
      const std::int64_t start =
          5'000'000'000 + static_cast<std::int64_t>(i) * 1'000;
      frame.push_back(trace::make_record(pid, 1 + i % 64, SimTime(start),
                                         SimTime(start + 10'000'000)));
    }
    sink(frame);
  }
}

/// The heap bytes a store made by `make` holds after `records` records.
template <typename Store, typename Make, typename Add>
std::int64_t held_after(std::size_t records, Make make, Add add) {
  const std::int64_t before = g_live_bytes.load();
  std::int64_t held = 0;
  {
    Store store = make();
    feed(records, [&](std::span<const IoRecord> frame) { add(store, frame); });
    held = g_live_bytes.load() - before;
  }
  EXPECT_EQ(g_live_bytes.load(), before) << "the store leaked";
  return held;
}

template <typename Store, typename Make, typename Add>
void expect_flat(const char* name, Make make, Add add) {
  const std::int64_t small = held_after<Store>(1'000, make, add);
  const std::int64_t large = held_after<Store>(1'000'000, make, add);
  std::printf("%s: %lld bytes at 10^3 records, %lld at 10^6\n", name,
              static_cast<long long>(small), static_cast<long long>(large));
  EXPECT_GT(small, 0) << name;
  EXPECT_LE(large, small + kSlack) << name;
  EXPECT_GE(large, small - kSlack) << name;
}

TEST(WindowMemory, SlidingWindowIsFlatInItsRecords) {
  expect_flat<metrics::SlidingWindowMetrics>(
      "SlidingWindowMetrics",
      [] { return metrics::SlidingWindowMetrics(kWindow); },
      [](metrics::SlidingWindowMetrics& w, std::span<const IoRecord> frame) {
        w.add(frame);
      });
}

TEST(WindowMemory, TwoPidAggregatorIsFlatInItsRecords) {
  expect_flat<agent::MetricAggregator>(
      "MetricAggregator",
      [] { return agent::MetricAggregator(kWindow, kDefaultBlockSize); },
      [](agent::MetricAggregator& agg, std::span<const IoRecord> frame) {
        agg.add(frame);
      });
}

TEST(WindowMemory, OneTenantShardsIsFlatInItsRecords) {
  // TenantShards is not movable (it owns mutexes): hold it by pointer.
  using Shards = std::unique_ptr<collector::TenantShards>;
  expect_flat<Shards>(
      "TenantShards",
      [] {
        return std::make_unique<collector::TenantShards>(8, kWindow,
                                                         kDefaultBlockSize);
      },
      [](Shards& shards, std::span<const IoRecord> frame) {
        shards->ingest(shards->handle("t"), frame);
      });
}

TEST(WindowMemory, AnIdleWindowReleasesItsTicks) {
  // A window whose records have all expired gives back at least the 64
  // tick slots of three 8-byte sums each.
  const std::int64_t before = g_live_bytes.load();
  metrics::SlidingWindowMetrics w(kWindow);
  feed(1'000, [&](std::span<const IoRecord> frame) { w.add(frame); });
  const std::int64_t live = g_live_bytes.load() - before;
  w.advance(SimTime(60'000'000'000));
  ASSERT_EQ(w.accesses(), 0u);
  const std::int64_t idle = g_live_bytes.load() - before;
  EXPECT_LE(idle + 64 * 3 * 8, live) << "live " << live << " idle " << idle;
}

}  // namespace
}  // namespace bpsio
