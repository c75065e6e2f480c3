#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"

#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace bpsio::sim {
namespace {

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(30), [&]() { order.push_back(3); });
  sim.schedule_at(SimTime(10), [&]() { order.push_back(1); });
  sim.schedule_at(SimTime(20), [&]() { order.push_back(2); });
  const SimTime end = sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(end.ns(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime(5), [&, i]() { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) sim.schedule_after(SimDuration(10), chain);
  };
  sim.schedule_now(chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now().ns(), 40);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime(123), [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.ns(), 123);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime(10), [&]() { ++fired; });
  sim.schedule_at(SimTime(20), [&]() { ++fired; });
  sim.schedule_at(SimTime(30), [&]() { ++fired; });
  sim.run_until(SimTime(20));
  EXPECT_EQ(fired, 2);  // events at exactly the deadline fire
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilMovesTheClockToTheDeadline) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  const auto record = [&]() { fired_at.push_back(sim.now().ns()); };
  sim.schedule_at(SimTime(10), record);
  sim.schedule_at(SimTime(20), record);
  sim.schedule_at(SimTime(30), record);
  EXPECT_EQ(sim.run_until(SimTime(25)), SimTime(25));
  EXPECT_EQ(sim.now(), SimTime(25));
  // Relative scheduling counts from the deadline, not from the last event.
  sim.schedule_after(SimDuration(1), record);
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{10, 20, 26, 30}));
}

TEST(Simulator, RunUntilPastADrainedQueueKeepsTheLastEventTime) {
  Simulator sim;
  sim.schedule_at(SimTime(10), []() {});
  EXPECT_EQ(sim.run_until(SimTime(25)), SimTime(10));
  EXPECT_EQ(sim.now(), SimTime(10));
}

TEST(Simulator, ResetClearsEverything) {
  Simulator sim;
  sim.schedule_at(SimTime(10), []() {});
  sim.reset();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.run(), SimTime::zero());
}

TEST(Simulator, ScheduleNowRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule_at(SimTime(50), [&]() {
    sim.schedule_now([&]() { EXPECT_EQ(sim.now().ns(), 50); });
  });
  sim.run();
}

TEST(Simulator, DeterministicUnderRandomizedSelfScheduling) {
  // Events that schedule more events with RNG-drawn delays: two identical
  // runs must visit identical (time, count) trajectories.
  auto trajectory = [](std::uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<std::int64_t> times;
    std::function<void(int)> spawn = [&](int depth) {
      times.push_back(sim.now().ns());
      if (depth >= 6) return;
      const int children = 1 + static_cast<int>(rng.uniform_u64(3));
      for (int c = 0; c < children; ++c) {
        sim.schedule_after(SimDuration(static_cast<std::int64_t>(
                               1 + rng.uniform_u64(1000))),
                           [&spawn, depth]() { spawn(depth + 1); });
      }
    };
    sim.schedule_now([&]() { spawn(0); });
    sim.run();
    return times;
  };
  EXPECT_EQ(trajectory(9), trajectory(9));
  EXPECT_NE(trajectory(9), trajectory(10));
}

TEST(Barrier, ReleasesAllPartiesTogether) {
  Simulator sim;
  Barrier barrier(sim, 3);
  std::vector<std::pair<int, std::int64_t>> released;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(SimTime(10 * (i + 1)), [&, i]() {
      barrier.arrive([&, i]() { released.emplace_back(i, sim.now().ns()); });
    });
  }
  sim.run();
  ASSERT_EQ(released.size(), 3u);
  // Everyone resumes at the last arrival's time.
  for (const auto& [id, t] : released) EXPECT_EQ(t, 30);
  EXPECT_EQ(barrier.rounds_completed(), 1u);
}

TEST(Barrier, IsReusableAcrossRounds) {
  Simulator sim;
  Barrier barrier(sim, 2);
  int releases = 0;
  auto loop = [&](auto&& self, int remaining) -> void {
    if (remaining == 0) return;
    barrier.arrive([&, remaining]() {
      ++releases;
      self(self, remaining - 1);
    });
  };
  sim.schedule_now([&]() { loop(loop, 3); });
  sim.schedule_now([&]() { loop(loop, 3); });
  sim.run();
  EXPECT_EQ(releases, 6);
  EXPECT_EQ(barrier.rounds_completed(), 3u);
}

TEST(JoinCounter, FiresAfterExpectedCompletions) {
  Simulator sim;
  bool done = false;
  JoinCounter join(sim, 3, [&]() { done = true; });
  join.complete_one();
  join.complete_one();
  EXPECT_FALSE(done);
  join.complete_one();
  EXPECT_TRUE(done);
}

TEST(JoinCounter, ZeroExpectedFiresViaEventLoop) {
  Simulator sim;
  bool done = false;
  JoinCounter join(sim, 0, [&]() { done = true; });
  EXPECT_FALSE(done);  // deferred to the event loop
  sim.run();
  EXPECT_TRUE(done);
}

TEST(FanOut, JoinsAllSpawnedWork) {
  Simulator sim;
  int completed = 0;
  bool all = false;
  fan_out(
      sim, 5,
      [&](std::uint64_t i, JoinFn one_done) {
        sim.schedule_at(SimTime(static_cast<std::int64_t>(10 * (5 - i))),
                        [&, one_done = std::move(one_done)]() {
                          ++completed;
                          one_done(true);
                        });
      },
      [&](bool ok) { all = ok; });
  sim.run();
  EXPECT_EQ(completed, 5);
  EXPECT_TRUE(all);
}

TEST(FanOut, ZeroCountStillFires) {
  Simulator sim;
  bool all = false;
  fan_out(sim, 0, [](std::uint64_t, JoinFn) { FAIL(); },
          [&](bool ok) { all = ok; });
  EXPECT_FALSE(all);  // deferred to the event loop
  sim.run();
  EXPECT_TRUE(all);
}

TEST(FanOut, AllDoneIsTheAndOfTheBranches) {
  Simulator sim;
  int calls = 0;
  bool all = true;
  fan_out(
      sim, 3,
      [&](std::uint64_t i, JoinFn one_done) {
        sim.schedule_at(SimTime(static_cast<std::int64_t>(i)),
                        [i, one_done = std::move(one_done)]() {
                          one_done(i != 1);
                        });
      },
      [&](bool ok) {
        ++calls;
        all = ok;
      });
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(all);
}

TEST(FanOut, SingleBranchCompletesSynchronously) {
  // Like a counting join with one expected completion: all_done runs inside
  // the branch's own completion call, at the same simulated time.
  Simulator sim;
  JoinFn branch;
  bool all = false;
  fan_out(
      sim, 1, [&](std::uint64_t, JoinFn one_done) { branch = std::move(one_done); },
      [&](bool ok) { all = ok; });
  EXPECT_FALSE(all);
  branch(true);
  EXPECT_TRUE(all);
  EXPECT_TRUE(sim.empty());
}

TEST(FanOut, AbandonedBranchesReleaseTheJoin) {
  // Dropping unfinished branches (a simulation torn down mid-flight) frees
  // the join and the never-called all_done.
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::vector<JoinFn> branches;
  fan_out(
      sim, 3,
      [&](std::uint64_t, JoinFn one_done) {
        branches.push_back(std::move(one_done));
      },
      [token](bool) {});
  EXPECT_EQ(token.use_count(), 2);
  branches[0](true);
  branches.clear();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(FanOutDeathTest, BranchCompletingTwiceIsCaught) {
  // A single branch, and the last of two.
  for (const std::uint64_t count : {1u, 2u}) {
    EXPECT_DEATH(
        {
          Simulator sim;
          std::vector<JoinFn> branches;
          fan_out(
              sim, count,
              [&](std::uint64_t, JoinFn one_done) {
                branches.push_back(std::move(one_done));
              },
              [](bool) {});
          for (const JoinFn& branch : branches) branch(true);
          branches.back()(true);
        },
        "completed more than once");
  }
}

}  // namespace
}  // namespace bpsio::sim
