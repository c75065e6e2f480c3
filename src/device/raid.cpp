#include "device/raid.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "sim/sync.hpp"

namespace bpsio::device {

namespace {

Bytes min_child_capacity(
    const std::vector<std::unique_ptr<BlockDevice>>& children) {
  BPSIO_CHECK(!children.empty(), "RAID needs at least one child device");
  Bytes cap = children.front()->capacity();
  for (const auto& c : children) cap = std::min(cap, c->capacity());
  return cap;
}

/// Service interval covered by the pieces of one array request.
struct ServiceSpan {
  SimTime first_start = SimTime::max();
  SimTime last_end{};

  void add(const DevResult& r) {
    first_start = min(first_start, r.start);
    last_end = max(last_end, r.end);
  }
};

}  // namespace

Raid0Device::Raid0Device(sim::Simulator& sim,
                         std::vector<std::unique_ptr<BlockDevice>> children,
                         Bytes stripe)
    : sim_(sim), children_(std::move(children)), stripe_(stripe) {
  BPSIO_CHECK(!children_.empty() && stripe_ > 0,
              "RAID0 needs children and a positive stripe");
  capacity_ = min_child_capacity(children_) * children_.size();
}

std::string Raid0Device::describe() const {
  return "raid0(" + std::to_string(children_.size()) + "x " +
         children_.front()->describe() + ")";
}

void Raid0Device::reset_state() {
  for (auto& c : children_) c->reset_state();
}

void Raid0Device::submit(DevOp op, Bytes offset, Bytes size, DevDoneFn done) {
  // Split [offset, offset+size) into per-child pieces (round-robin stripes,
  // merged per child like the PFS layout math).
  struct Piece {
    std::size_t child;
    Bytes child_offset;
    Bytes length;
  };
  std::vector<Piece> pieces;
  const std::size_t n = children_.size();
  Bytes cur = offset;
  Bytes remaining = size;
  while (remaining > 0) {
    const Bytes unit = cur / stripe_;
    const Bytes within = cur % stripe_;
    const std::size_t child = static_cast<std::size_t>(unit % n);
    const Bytes child_off = (unit / n) * stripe_ + within;
    const Bytes take = std::min(remaining, stripe_ - within);
    if (!pieces.empty() && pieces.back().child == child &&
        pieces.back().child_offset + pieces.back().length == child_off) {
      pieces.back().length += take;
    } else {
      pieces.push_back(Piece{child, child_off, take});
    }
    cur += take;
    remaining -= take;
  }

  auto span = std::make_shared<ServiceSpan>();
  sim::fan_out(
      sim_, pieces.size(),
      [&](std::uint64_t i, sim::JoinFn one_done) {
        const Piece piece = pieces[i];
        children_[piece.child]->submit(
            op, piece.child_offset, piece.length,
            [span, one_done = std::move(one_done)](DevResult r) {
              span->add(r);
              one_done(r.ok);
            });
      },
      [this, op, size, span, done = std::move(done)](bool ok) {
        account(op, size, ok, span->last_end - span->first_start);
        done(DevResult{ok, span->first_start, span->last_end});
      });
}

Raid1Device::Raid1Device(sim::Simulator& sim,
                         std::vector<std::unique_ptr<BlockDevice>> children)
    : sim_(sim), children_(std::move(children)) {
  BPSIO_CHECK(!children_.empty(), "RAID1 needs at least one child device");
  capacity_ = min_child_capacity(children_);
}

std::string Raid1Device::describe() const {
  return "raid1(" + std::to_string(children_.size()) + "x " +
         children_.front()->describe() + ")";
}

void Raid1Device::reset_state() {
  for (auto& c : children_) c->reset_state();
}

void Raid1Device::submit(DevOp op, Bytes offset, Bytes size, DevDoneFn done) {
  if (op == DevOp::read) {
    // Round-robin read distribution across replicas.
    const std::size_t child = next_read_;
    next_read_ = (next_read_ + 1) % children_.size();
    children_[child]->submit(
        op, offset, size,
        [this, op, size, done = std::move(done)](DevResult r) {
          account(op, size, r.ok, r.end - r.start);
          done(r);
        });
    return;
  }

  // Writes go to every replica; completion when the slowest lands.
  auto span = std::make_shared<ServiceSpan>();
  sim::fan_out(
      sim_, children_.size(),
      [&](std::uint64_t i, sim::JoinFn one_done) {
        children_[i]->submit(op, offset, size,
                             [span, one_done = std::move(one_done)](
                                 DevResult r) {
                               span->add(r);
                               one_done(r.ok);
                             });
      },
      [this, op, size, span, done = std::move(done)](bool ok) {
        account(op, size, ok, span->last_end - span->first_start);
        done(DevResult{ok, span->first_start, span->last_end});
      });
}

}  // namespace bpsio::device
