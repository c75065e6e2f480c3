// Block-device abstraction for the simulated storage layer.
//
// Devices are service stations: a request occupies a device slot for a
// model-computed service time (seek + rotation + transfer for disks,
// channel latency + transfer for flash). Request data never exists — only
// offsets and sizes — which is all the performance model needs.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "sim/callback.hpp"

namespace bpsio::device {

enum class DevOp : std::uint8_t { read, write };

struct DevResult {
  bool ok = true;
  SimTime start;  ///< service start (after queueing)
  SimTime end;    ///< service end
};

using DevDoneFn = sim::Callback<void(DevResult)>;

/// Cumulative device counters, exposed for bandwidth accounting and tests.
struct DeviceStats {
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t failed_ops = 0;
  SimDuration busy_time = SimDuration::zero();

  std::uint64_t total_ops() const { return read_ops + write_ops; }
  Bytes total_bytes() const { return bytes_read + bytes_written; }
};

/// Optional fault injection: each request fails independently with
/// probability `failure_rate`; a failed request still consumes
/// `failed_fraction` of its service time (partial transfer then abort).
struct FaultProfile {
  double failure_rate = 0.0;
  double failed_fraction = 0.5;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Enqueue a request. `offset`/`size` are byte-addressed; completion is
  /// delivered through the simulator event loop.
  virtual void submit(DevOp op, Bytes offset, Bytes size, DevDoneFn done) = 0;

  virtual Bytes capacity() const = 0;
  virtual std::string describe() const = 0;

  /// Reset mechanical/queue-independent state (e.g. head position) between
  /// runs that share one device instance. Does not clear stats.
  virtual void reset_state() {}

  const DeviceStats& stats() const { return stats_; }
  void clear_stats() { stats_ = DeviceStats{}; }

 protected:
  void account(DevOp op, Bytes size, bool ok, SimDuration busy);

  DeviceStats stats_;
};

}  // namespace bpsio::device
