// Discrete-event simulation core.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two runs of the same configuration are bit-identical. All the
// I/O-stack layers (device, fs, pfs, mio) are callback-driven on top of this
// engine; simulated processes block on I/O by simply not scheduling their
// next step until the completion callback runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "sim/callback.hpp"

namespace bpsio::sim {

using EventFn = Callback<void()>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  void schedule_at(SimTime t, EventFn fn);
  /// Schedule `fn` after `d` from now.
  void schedule_after(SimDuration d, EventFn fn);
  /// Schedule `fn` at the current time, after already-queued same-time events.
  void schedule_now(EventFn fn) { schedule_at(now_, std::move(fn)); }

  /// Run until the event queue drains. Returns the final simulation time.
  SimTime run();
  /// Run until simulated time reaches `deadline` (events at exactly
  /// `deadline` still fire, and the clock then reads `deadline`) or the
  /// queue drains, whichever is first. Returns the final simulation time.
  SimTime run_until(SimTime deadline);

  bool empty() const { return heap_.empty(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Drop all pending events and reset the clock to zero.
  void reset();

 private:
  // A binary min-heap of {time, seq, callback}: three words per event, the
  // callable itself lives in the block pool.
  struct Event {
    SimTime time;
    std::uint64_t seq;  // FIFO tiebreak for same-time events
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void step();

  std::vector<Event> heap_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace bpsio::sim
