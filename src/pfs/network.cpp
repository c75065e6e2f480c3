#include "pfs/network.hpp"

#include <algorithm>

namespace bpsio::pfs {

Nic::Nic(sim::Simulator& sim, const NetworkParams& params, std::string name)
    : name_(std::move(name)),
      rate_bps_(params.line_rate_mbps * 1e6),
      tx_(sim, 1, name_ + ".tx"),
      rx_(sim, 1, name_ + ".rx") {}

Network::Network(sim::Simulator& sim, NetworkParams params)
    : sim_(sim), params_(params) {
  if (params_.fabric_rate_mbps > 0.0) {
    fabric_ = std::make_unique<sim::ServiceCenter>(sim_, 1, "fabric");
  }
}

std::unique_ptr<Nic> Network::make_nic(std::string name) {
  return std::make_unique<Nic>(sim_, params_, std::move(name));
}

void Network::transfer(Nic& src, Nic& dst, Bytes bytes, sim::EventFn done) {
  if (bytes == 0) {
    sim_.schedule_now(std::move(done));
    return;
  }
  src.add_sent(bytes);
  const Bytes chunk = std::max<Bytes>(1, params_.chunk_size);
  const std::uint64_t chunks = (bytes + chunk - 1) / chunk;
  // Chunks enqueue on src.tx in order; each crosses the (possibly
  // oversubscribed) fabric and hops to dst.rx after the propagation delay.
  // Pipelining across chunks emerges from the queues.
  sim::fan_out(
      sim_, chunks,
      [&](std::uint64_t i, sim::JoinFn chunk_done) {
        const Bytes this_chunk = std::min<Bytes>(chunk, bytes - i * chunk);
        src.tx().submit(
            src.serialization_time(this_chunk),
            [this, &dst, this_chunk, chunk_done = std::move(chunk_done)](
                SimTime, SimTime) mutable {
              if (!fabric_) {
                deliver(dst, this_chunk, std::move(chunk_done));
                return;
              }
              const SimDuration fabric_time = SimDuration::from_seconds(
                  static_cast<double>(this_chunk) /
                  (params_.fabric_rate_mbps * 1e6));
              fabric_->submit(fabric_time,
                              [this, &dst, this_chunk,
                               chunk_done = std::move(chunk_done)](
                                  SimTime, SimTime) mutable {
                                deliver(dst, this_chunk,
                                        std::move(chunk_done));
                              });
            });
      },
      [&dst, bytes, done = std::move(done)](bool) {
        dst.add_received(bytes);
        done();
      });
}

void Network::deliver(Nic& dst, Bytes chunk, sim::JoinFn chunk_done) {
  sim_.schedule_after(
      params_.latency,
      [&dst, chunk, chunk_done = std::move(chunk_done)]() mutable {
        dst.rx().submit(dst.serialization_time(chunk),
                        [chunk_done = std::move(chunk_done)](SimTime,
                                                             SimTime) {
                          chunk_done(true);
                        });
      });
}

void Network::message(Nic& src, Nic& dst, sim::EventFn done) {
  transfer(src, dst, params_.message_size, std::move(done));
}

}  // namespace bpsio::pfs
