// Synchronization helpers for simulated parallel programs.
#pragma once

#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/block_pool.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace bpsio::sim {

/// MPI_Barrier-style rendezvous: the continuation of every arriving party
/// fires once the last of `parties` has arrived. Reusable round after round.
class Barrier {
 public:
  Barrier(Simulator& sim, std::uint32_t parties)
      : sim_(sim), parties_(parties) {
    BPSIO_CHECK(parties_ >= 1, "barrier needs at least one party");
  }

  /// Register this party's arrival; `resume` runs when the round completes.
  void arrive(EventFn resume);

  std::uint32_t parties() const { return parties_; }
  std::uint32_t waiting() const
  { return static_cast<std::uint32_t>(waiters_.size()); }
  std::uint64_t rounds_completed() const { return rounds_; }

 private:
  Simulator& sim_;
  std::uint32_t parties_;
  std::vector<EventFn> waiters_;
  std::uint64_t rounds_ = 0;
};

/// Fan-in join: fires `done` after `expected` completions have been counted.
/// Used to join collective phases and open-loop streams. An expected count
/// of zero fires immediately on construction-time arm().
class JoinCounter {
 public:
  JoinCounter(Simulator& sim, std::uint64_t expected, EventFn done)
      : sim_(sim), remaining_(expected), done_(std::move(done)) {
    if (remaining_ == 0) sim_.schedule_now([this]() { fire(); });
  }

  void complete_one() {
    BPSIO_CHECK(remaining_ > 0, "JoinCounter completed more than expected");
    if (--remaining_ == 0) fire();
  }

  std::uint64_t remaining() const { return remaining_; }

 private:
  void fire() {
    if (done_) {
      EventFn f = std::move(done_);
      f();
    }
  }

  Simulator& sim_;
  std::uint64_t remaining_;
  EventFn done_;
};

/// Completion of one fan_out branch, and of the whole fan-out: `ok` is
/// false when the branch failed, or when any branch failed.
using JoinFn = Callback<void(bool ok)>;

namespace detail {

/// The shared state of one fan_out, in a pool block. It lives until the
/// last branch callback is destroyed, not merely called, so a branch that
/// completes twice trips the check instead of touching freed memory.
struct FanOutJoin {
  std::uint64_t remaining;  ///< branches yet to complete
  std::uint64_t refs;       ///< branch callbacks still alive
  bool ok;
  JoinFn done;

  void arrive(bool branch_ok) {
    BPSIO_CHECK(remaining > 0, "fan_out branch completed more than once");
    ok = ok && branch_ok;
    if (--remaining == 0) {
      JoinFn f = std::move(done);
      f(ok);
    }
  }
};

inline constexpr std::size_t kFanOutJoinClass =
    pool::size_class(sizeof(FanOutJoin));

inline FanOutJoin* make_fan_out_join(std::uint64_t count, JoinFn done) {
  return ::new (pool::allocate(kFanOutJoinClass))
      FanOutJoin{count, count, true, std::move(done)};
}

inline void release(FanOutJoin* join) noexcept {
  if (--join->refs == 0) {
    join->~FanOutJoin();
    pool::deallocate(join, kFanOutJoinClass);
  }
}

/// The callable behind each branch's JoinFn.
class FanOutBranch {
 public:
  explicit FanOutBranch(FanOutJoin* join) : join_(join) {}
  FanOutBranch(FanOutBranch&& other) noexcept
      : join_(std::exchange(other.join_, nullptr)) {}
  FanOutBranch(const FanOutBranch&) = delete;
  FanOutBranch& operator=(const FanOutBranch&) = delete;
  FanOutBranch& operator=(FanOutBranch&&) = delete;
  ~FanOutBranch() {
    if (join_ != nullptr) release(join_);
  }

  void operator()(bool ok) const { join_->arrive(ok); }

 private:
  FanOutJoin* join_;
};

}  // namespace detail

/// Run `count` async operations, spawned by `spawn(i, one_done)`, and call
/// `all_done(ok)` once every branch has called its `one_done`; `ok` is the
/// AND of the branches' results. The join fires inside the last branch's
/// completion, so with one branch `all_done` runs within that branch's
/// call. A count of 0 schedules `all_done(true)` as an event.
template <class Spawn>
void fan_out(Simulator& sim, std::uint64_t count, Spawn&& spawn,
             JoinFn all_done) {
  if (count == 0) {
    sim.schedule_now([done = std::move(all_done)]() { done(true); });
    return;
  }
  detail::FanOutJoin* join =
      detail::make_fan_out_join(count, std::move(all_done));
  for (std::uint64_t i = 0; i < count; ++i) {
    spawn(i, JoinFn(detail::FanOutBranch(join)));
  }
}

}  // namespace bpsio::sim
