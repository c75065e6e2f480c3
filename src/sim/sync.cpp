#include "sim/sync.hpp"

#include <utility>

namespace bpsio::sim {

void Barrier::arrive(EventFn resume) {
  waiters_.push_back(std::move(resume));
  if (waiters_.size() == parties_) {
    ++rounds_;
    std::vector<EventFn> to_fire;
    to_fire.swap(waiters_);
    for (auto& fn : to_fire) {
      sim_.schedule_now(std::move(fn));
    }
  }
}

}  // namespace bpsio::sim
