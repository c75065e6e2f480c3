#include <gtest/gtest.h>

#include <vector>

#include "sim/service_center.hpp"

namespace bpsio::sim {
namespace {

TEST(ServiceCenter, SingleSlotSerializesJobs) {
  Simulator sim;
  ServiceCenter center(sim, 1);
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (int i = 0; i < 3; ++i) {
    center.submit(SimDuration(10), [&](SimTime s, SimTime e) {
      spans.emplace_back(s.ns(), e.ns());
    });
  }
  sim.run();
  ASSERT_EQ(spans.size(), 3u);
  const std::pair<std::int64_t, std::int64_t> expected[] = {
      {0, 10}, {10, 20}, {20, 30}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)], expected[i]);
  }
  EXPECT_EQ(center.jobs_completed(), 3u);
  EXPECT_EQ(center.busy_time().ns(), 30);
}

TEST(ServiceCenter, MultiSlotRunsInParallel) {
  Simulator sim;
  ServiceCenter center(sim, 2);
  std::vector<std::int64_t> ends;
  for (int i = 0; i < 4; ++i) {
    center.submit(SimDuration(10),
                  [&](SimTime, SimTime e) { ends.push_back(e.ns()); });
  }
  sim.run();
  ASSERT_EQ(ends.size(), 4u);
  // Two waves of two.
  EXPECT_EQ(ends[0], 10);
  EXPECT_EQ(ends[1], 10);
  EXPECT_EQ(ends[2], 20);
  EXPECT_EQ(ends[3], 20);
}

TEST(ServiceCenter, MeanWaitTracksQueueing) {
  Simulator sim;
  ServiceCenter center(sim, 1);
  for (int i = 0; i < 3; ++i) {
    center.submit(SimDuration(10), [](SimTime, SimTime) {});
  }
  sim.run();
  // Waits: 0, 10, 20 -> mean 10.
  EXPECT_NEAR(center.mean_wait_seconds(), 10e-9, 1e-15);
}

TEST(ServiceCenter, CompletionHandlerCanResubmit) {
  Simulator sim;
  ServiceCenter center(sim, 1);
  int chain = 0;
  std::function<void(SimTime, SimTime)> resubmit =
      [&](SimTime, SimTime) {
        if (++chain < 4) center.submit(SimDuration(5), resubmit);
      };
  center.submit(SimDuration(5), resubmit);
  sim.run();
  EXPECT_EQ(chain, 4);
  EXPECT_EQ(sim.now().ns(), 20);
}

TEST(ServiceCenter, QueueLengthAndBusySlotsObservable) {
  Simulator sim;
  ServiceCenter center(sim, 1);
  center.submit(SimDuration(100), [](SimTime, SimTime) {});
  center.submit(SimDuration(100), [](SimTime, SimTime) {});
  // First dispatched immediately, second queued.
  EXPECT_EQ(center.busy_slots(), 1u);
  EXPECT_EQ(center.queue_length(), 1u);
  sim.run();
  EXPECT_EQ(center.busy_slots(), 0u);
  EXPECT_EQ(center.queue_length(), 0u);
}

TEST(ServiceCenter, ZeroServiceTimeJobs) {
  Simulator sim;
  ServiceCenter center(sim, 1);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    center.submit(SimDuration::zero(), [&](SimTime s, SimTime e) {
      EXPECT_EQ(s, e);
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, 5);
}

}  // namespace
}  // namespace bpsio::sim
