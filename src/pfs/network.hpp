// Cluster interconnect model (GigE-class, per the paper's testbed).
//
// Every node owns one full-duplex NIC: two FIFO ServiceCenters (tx, rx)
// whose service time is bytes / line-rate. A transfer occupies the sender's
// tx and then the receiver's rx, with propagation latency in between; large
// transfers are chunked so concurrent streams interleave like TCP flows
// instead of head-of-line blocking each other. Client-NIC rx contention is
// the mechanism behind rising response times in the paper's concurrency
// experiments (Figures 9-11).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "sim/service_center.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace bpsio::pfs {

struct NetworkParams {
  double line_rate_mbps = 117.0;  ///< GigE payload rate, MB/s
  SimDuration latency = SimDuration::from_us(60.0);
  Bytes chunk_size = 256 * kKiB;  ///< flow interleaving granularity
  Bytes message_size = 256;       ///< control message wire size
  /// Switch backplane/uplink capacity shared by ALL transfers (MB/s).
  /// 0 = non-blocking fabric (every port pair at line rate). Real GigE
  /// edge switches with oversubscribed uplinks sit well below
  /// ports * line_rate; this knob reproduces that contention stage.
  double fabric_rate_mbps = 0.0;
};

class Nic {
 public:
  Nic(sim::Simulator& sim, const NetworkParams& params, std::string name);

  sim::ServiceCenter& tx() { return tx_; }
  sim::ServiceCenter& rx() { return rx_; }
  double rate_bps() const { return rate_bps_; }
  const std::string& name() const { return name_; }

  SimDuration serialization_time(Bytes n) const {
    return SimDuration::from_seconds(static_cast<double>(n) / rate_bps_);
  }

  Bytes bytes_sent() const { return bytes_sent_; }
  Bytes bytes_received() const { return bytes_received_; }
  void add_sent(Bytes n) { bytes_sent_ += n; }
  void add_received(Bytes n) { bytes_received_ += n; }

 private:
  std::string name_;
  double rate_bps_;
  sim::ServiceCenter tx_;
  sim::ServiceCenter rx_;
  Bytes bytes_sent_ = 0;
  Bytes bytes_received_ = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, NetworkParams params = {});

  const NetworkParams& params() const { return params_; }

  /// Create a NIC attached to this network.
  std::unique_ptr<Nic> make_nic(std::string name);

  /// Move `bytes` from `src` to `dst` (chunked, pipelined), then `done`.
  void transfer(Nic& src, Nic& dst, Bytes bytes, sim::EventFn done);

  /// Send a control message (request/ack) from `src` to `dst`.
  void message(Nic& src, Nic& dst, sim::EventFn done);

  /// The shared fabric stage (null when non-blocking).
  const sim::ServiceCenter* fabric() const { return fabric_.get(); }

 private:
  /// Propagation delay, then `dst`'s rx stage, for one chunk.
  void deliver(Nic& dst, Bytes chunk, sim::JoinFn chunk_done);

  sim::Simulator& sim_;
  NetworkParams params_;
  std::unique_ptr<sim::ServiceCenter> fabric_;
};

}  // namespace bpsio::pfs
