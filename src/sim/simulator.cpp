#include "sim/simulator.hpp"

#include <utility>

#include "common/check.hpp"

namespace bpsio::sim {

void Simulator::schedule_at(SimTime t, EventFn fn) {
  BPSIO_CHECK(t >= now_, "cannot schedule into the past (t=%lldns, now=%lldns)",
              static_cast<long long>(t.ns()),
              static_cast<long long>(now_.ns()));
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

void Simulator::schedule_after(SimDuration d, EventFn fn) {
  BPSIO_CHECK(d.ns() >= 0, "negative delay %lldns",
              static_cast<long long>(d.ns()));
  schedule_at(now_ + d, std::move(fn));
}

void Simulator::step() {
  // priority_queue::top() is const; move the callback out via const_cast.
  // Safe: the element is popped immediately and never reused.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ++events_processed_;
  ev.fn();
}

SimTime Simulator::run() {
  while (!queue_.empty()) step();
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.top().time <= deadline) step();
  // Events remain past the deadline: the clock reaches it. A queue that
  // drained first leaves the clock at the last event.
  if (!queue_.empty()) now_ = max(now_, deadline);
  return now_;
}

void Simulator::reset() {
  queue_ = {};
  now_ = SimTime::zero();
  next_seq_ = 0;
  events_processed_ = 0;
}

}  // namespace bpsio::sim
