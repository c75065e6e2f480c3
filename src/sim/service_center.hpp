// Queued service resources for the simulated I/O stack.
//
// A ServiceCenter models `slots` identical servers in front of one FIFO
// queue (an M/G/c station driven by the DES, not by analytic formulas).
// Devices, NICs, and I/O-server request handlers are all ServiceCenters; each
// computes a job's service time when it submits the job. Queueing delay — the
// mechanism behind the paper's concurrency experiments — emerges from
// contention here.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/sim_time.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace bpsio::sim {

/// Completion callback: (service_start, service_end) in simulated time.
using ServiceDoneFn = Callback<void(SimTime start, SimTime end)>;

class ServiceCenter {
 public:
  ServiceCenter(Simulator& sim, std::uint32_t slots, std::string name = {});

  /// Enqueue a job that holds a slot for `service_time` once dispatched.
  void submit(SimDuration service_time, ServiceDoneFn done);

  std::uint32_t slots() const { return slots_; }
  std::size_t queue_length() const { return queue_.size(); }
  std::uint32_t busy_slots() const { return busy_; }

  // --- utilization accounting ---
  /// Total slot-busy time accumulated so far (sums across slots).
  SimDuration busy_time() const { return busy_time_; }
  std::uint64_t jobs_completed() const { return jobs_completed_; }
  /// Mean queueing delay (time from submit to service start) over all jobs.
  double mean_wait_seconds() const;

  const std::string& name() const { return name_; }

 private:
  struct Job {
    SimDuration service;
    ServiceDoneFn done;
    SimTime submitted;
  };

  void try_dispatch();
  void finish(SimTime start, SimDuration service, ServiceDoneFn done);

  Simulator& sim_;
  std::uint32_t slots_;
  std::string name_;
  std::deque<Job> queue_;
  std::uint32_t busy_ = 0;
  SimDuration busy_time_ = SimDuration::zero();
  SimDuration total_wait_ = SimDuration::zero();
  std::uint64_t jobs_completed_ = 0;
};

}  // namespace bpsio::sim
