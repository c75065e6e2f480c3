#include "sim/service_center.hpp"

#include <utility>

#include "common/check.hpp"

namespace bpsio::sim {

ServiceCenter::ServiceCenter(Simulator& sim, std::uint32_t slots,
                             std::string name)
    : sim_(sim), slots_(slots), name_(std::move(name)) {
  BPSIO_CHECK(slots_ >= 1, "service center '%s' needs at least one slot",
              name_.c_str());
}

void ServiceCenter::submit(SimDuration service_time, ServiceDoneFn done) {
  queue_.push_back(Job{service_time, std::move(done), sim_.now()});
  try_dispatch();
}

void ServiceCenter::try_dispatch() {
  while (busy_ < slots_ && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    const SimTime start = sim_.now();
    total_wait_ += start - job.submitted;
    const SimDuration service = job.service;
    BPSIO_CHECK(service.ns() >= 0,
                "negative service time %lldns at '%s'",
                static_cast<long long>(service.ns()), name_.c_str());
    sim_.schedule_after(service, [this, start, service,
                                  done = std::move(job.done)]() mutable {
      finish(start, service, std::move(done));
    });
  }
}

void ServiceCenter::finish(SimTime start, SimDuration service,
                           ServiceDoneFn done) {
  --busy_;
  busy_time_ += service;
  ++jobs_completed_;
  const SimTime end = sim_.now();
  // Free the slot before the callback so completion handlers that resubmit
  // see the true slot state.
  try_dispatch();
  done(start, end);
}

double ServiceCenter::mean_wait_seconds() const {
  const std::uint64_t total_jobs =
      jobs_completed_ + busy_;  // in-service jobs have a recorded wait too
  if (total_jobs == 0) return 0.0;
  return total_wait_.seconds() / static_cast<double>(total_jobs);
}

}  // namespace bpsio::sim
