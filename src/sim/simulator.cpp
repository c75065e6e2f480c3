#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace bpsio::sim {

void Simulator::schedule_at(SimTime t, EventFn fn) {
  BPSIO_CHECK(t >= now_, "cannot schedule into the past (t=%lldns, now=%lldns)",
              static_cast<long long>(t.ns()),
              static_cast<long long>(now_.ns()));
  heap_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::schedule_after(SimDuration d, EventFn fn) {
  BPSIO_CHECK(d.ns() >= 0, "negative delay %lldns",
              static_cast<long long>(d.ns()));
  schedule_at(now_ + d, std::move(fn));
}

void Simulator::step() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ++events_processed_;
  ev.fn();
}

SimTime Simulator::run() {
  while (!heap_.empty()) step();
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) step();
  // Events remain past the deadline: the clock reaches it. A queue that
  // drained first leaves the clock at the last event.
  if (!heap_.empty()) now_ = max(now_, deadline);
  return now_;
}

void Simulator::reset() {
  heap_.clear();
  now_ = SimTime::zero();
  next_seq_ = 0;
  events_processed_ = 0;
}

}  // namespace bpsio::sim
