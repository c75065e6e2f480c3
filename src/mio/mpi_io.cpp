#include "mio/mpi_io.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bpsio::mio {

namespace {

bool regions_sorted(const std::vector<Region>& regions) {
  for (std::size_t i = 1; i < regions.size(); ++i) {
    if (regions[i].offset < regions[i - 1].end()) return false;
  }
  return true;
}

}  // namespace

Bytes regions_bytes(const std::vector<Region>& regions) {
  Bytes total = 0;
  for (const auto& r : regions) total += r.length;
  return total;
}

std::vector<Region> make_strided_regions(Bytes start, std::uint64_t count,
                                         Bytes size, Bytes spacing) {
  std::vector<Region> regions;
  regions.reserve(count);
  Bytes off = start;
  for (std::uint64_t i = 0; i < count; ++i) {
    regions.push_back(Region{off, size});
    off += size + spacing;
  }
  return regions;
}

MpiIo::MpiIo(IoClient& client, DataSievingConfig sieving)
    : client_(client), sieving_(sieving) {}

void MpiIo::read(fs::FileHandle h, Bytes offset, Bytes size,
                 fs::IoDoneFn done) {
  client_.read(h, offset, size, std::move(done));
}

void MpiIo::write(fs::FileHandle h, Bytes offset, Bytes size,
                  fs::IoDoneFn done) {
  client_.write(h, offset, size, std::move(done));
}

struct MpiIo::ListPlan {
  fs::FileHandle handle;
  std::vector<Region> regions;
  /// Sieve chunks [start, end) in ascending order.
  std::vector<std::pair<Bytes, Bytes>> chunks;
  Bytes useful = 0;
  SimTime start;
  trace::IoOpKind op = trace::IoOpKind::read;
  bool ok = true;
  fs::IoDoneFn done;
  std::size_t region_cursor = 0;  ///< walking pointer for chunk extraction
};

void MpiIo::finish_list(std::shared_ptr<ListPlan> plan) {
  auto& node = client_.node();
  const std::uint8_t flags = plan->ok ? trace::kIoOk : trace::kIoFailed;
  const auto blocks = bytes_to_blocks(plan->useful, client_.block_size());
  client_.trace().record(blocks, plan->start, node.simulator().now(),
                         plan->op, flags);
  plan->done(fs::IoOutcome{plan->ok, plan->ok ? plan->useful : 0});
}

void MpiIo::run_sieved_chunks(std::shared_ptr<ListPlan> plan,
                              std::size_t chunk_idx, bool rmw) {
  if (chunk_idx >= plan->chunks.size()) {
    finish_list(std::move(plan));
    return;
  }
  const auto [c_start, c_end] = plan->chunks[chunk_idx];

  // Useful bytes and coverage inside this chunk (regions sorted; the cursor
  // never moves backwards, so the whole list is walked once per call).
  Bytes useful_in_chunk = 0;
  bool holes = false;
  Bytes covered_until = c_start;
  std::size_t i = plan->region_cursor;
  while (i < plan->regions.size() && plan->regions[i].offset < c_end) {
    const Region& r = plan->regions[i];
    const Bytes s = std::max(r.offset, c_start);
    const Bytes e = std::min(r.end(), c_end);
    if (s < e) {
      useful_in_chunk += e - s;
      if (s > covered_until) holes = true;
      covered_until = std::max(covered_until, e);
    }
    if (r.end() <= c_end) {
      ++i;
    } else {
      break;  // region continues into the next chunk
    }
  }
  if (covered_until < c_end) holes = true;
  plan->region_cursor = i;

  auto next = [this, plan, chunk_idx, rmw]() mutable {
    run_sieved_chunks(std::move(plan), chunk_idx + 1, rmw);
  };

  if (plan->op == trace::IoOpKind::read) {
    client_.backend_read_unrecorded(
        plan->handle, c_start, c_end - c_start,
        [this, plan, useful_in_chunk, next = std::move(next)](
            fs::IoOutcome out) mutable {
          if (!out.ok) plan->ok = false;
          // Extract the useful regions out of the sieve buffer.
          client_.node().compute(client_.node().copy_time(useful_in_chunk),
                                 std::move(next));
        });
    return;
  }

  // Sieving write: chunks with holes are read-modify-write (we must not
  // clobber the hole bytes); fully-covered chunks are written directly.
  auto do_write = [this, plan, c_start, c_end, useful_in_chunk,
                   next = std::move(next)]() mutable {
    client_.node().compute(
        client_.node().copy_time(useful_in_chunk),
        [this, plan, c_start, c_end, next = std::move(next)]() mutable {
          client_.backend().write(plan->handle, c_start, c_end - c_start,
                                  [plan, next = std::move(next)](
                                      fs::IoOutcome out) mutable {
                                    if (!out.ok) plan->ok = false;
                                    next();
                                  });
        });
  };
  if (rmw && holes) {
    client_.backend_read_unrecorded(
        plan->handle, c_start, c_end - c_start,
        [plan, do_write = std::move(do_write)](fs::IoOutcome out) mutable {
          if (!out.ok) plan->ok = false;
          do_write();
        });
  } else {
    do_write();
  }
}

void MpiIo::run_region_by_region(std::shared_ptr<ListPlan> plan,
                                 std::size_t idx, bool is_write) {
  if (idx >= plan->regions.size()) {
    finish_list(std::move(plan));
    return;
  }
  const Region r = plan->regions[idx];
  auto next = [this, plan, idx, is_write](fs::IoOutcome out) mutable {
    if (!out.ok) plan->ok = false;
    client_.node().compute(
        client_.node().copy_time(out.bytes),
        [this, plan = std::move(plan), idx, is_write]() mutable {
          run_region_by_region(std::move(plan), idx + 1, is_write);
        });
  };
  if (is_write) {
    client_.backend().write(plan->handle, r.offset, r.length, std::move(next));
  } else {
    client_.backend_read_unrecorded(plan->handle, r.offset, r.length,
                                    std::move(next));
  }
}

namespace {

/// Split the covering extent of sorted regions into sieve chunks, breaking
/// at holes wider than max_hole (0 = never break).
std::vector<std::pair<Bytes, Bytes>> plan_chunks(
    const std::vector<Region>& regions, Bytes buffer_size, Bytes max_hole) {
  std::vector<std::pair<Bytes, Bytes>> spans;
  if (regions.empty()) return spans;
  Bytes span_start = regions.front().offset;
  Bytes span_end = regions.front().end();
  for (std::size_t i = 1; i < regions.size(); ++i) {
    const Bytes hole = regions[i].offset - span_end;
    if (max_hole > 0 && hole > max_hole) {
      spans.emplace_back(span_start, span_end);
      span_start = regions[i].offset;
    }
    span_end = regions[i].end();
  }
  spans.emplace_back(span_start, span_end);

  std::vector<std::pair<Bytes, Bytes>> chunks;
  for (const auto& [s, e] : spans) {
    for (Bytes c = s; c < e; c += buffer_size) {
      chunks.emplace_back(c, std::min(c + buffer_size, e));
    }
  }
  return chunks;
}

}  // namespace

void MpiIo::read_list(fs::FileHandle h, std::vector<Region> regions,
                      fs::IoDoneFn done) {
  auto plan = std::make_shared<ListPlan>();
  plan->handle = h;
  if (!regions_sorted(regions)) {
    std::sort(regions.begin(), regions.end(),
              [](const Region& a, const Region& b) {
                return a.offset < b.offset;
              });
  }
  plan->regions = std::move(regions);
  plan->useful = regions_bytes(plan->regions);
  plan->op = trace::IoOpKind::read;
  plan->done = std::move(done);
  plan->start = client_.node().simulator().now();

  // MPI_File_read entry: request setup plus datatype flattening — a real,
  // per-region CPU cost that large region counts make significant.
  const SimDuration setup =
      client_.node().params().per_op_overhead +
      sieving_.per_region_overhead * static_cast<std::int64_t>(plan->regions.size());

  const bool sieve = sieving_.enabled && !plan->regions.empty();
  if (sieve) {
    plan->chunks =
        plan_chunks(plan->regions, sieving_.buffer_size, sieving_.max_hole);
  }
  client_.node().compute(setup, [this, plan, sieve]() mutable {
    if (plan->regions.empty()) {
      finish_list(std::move(plan));
    } else if (sieve) {
      run_sieved_chunks(std::move(plan), 0, /*rmw=*/false);
    } else {
      run_region_by_region(std::move(plan), 0, /*is_write=*/false);
    }
  });
}

void MpiIo::write_list(fs::FileHandle h, std::vector<Region> regions,
                       fs::IoDoneFn done) {
  auto plan = std::make_shared<ListPlan>();
  plan->handle = h;
  if (!regions_sorted(regions)) {
    std::sort(regions.begin(), regions.end(),
              [](const Region& a, const Region& b) {
                return a.offset < b.offset;
              });
  }
  plan->regions = std::move(regions);
  plan->useful = regions_bytes(plan->regions);
  plan->op = trace::IoOpKind::write;
  plan->done = std::move(done);
  plan->start = client_.node().simulator().now();

  const SimDuration setup =
      client_.node().params().per_op_overhead +
      sieving_.per_region_overhead * static_cast<std::int64_t>(plan->regions.size());

  const bool sieve = sieving_.enabled && !plan->regions.empty();
  if (sieve) {
    plan->chunks =
        plan_chunks(plan->regions, sieving_.buffer_size, sieving_.max_hole);
  }
  client_.node().compute(setup, [this, plan, sieve]() mutable {
    if (plan->regions.empty()) {
      finish_list(std::move(plan));
    } else if (sieve) {
      run_sieved_chunks(std::move(plan), 0, /*rmw=*/true);
    } else {
      run_region_by_region(std::move(plan), 0, /*is_write=*/true);
    }
  });
}

// ---------------------------------------------------------------------------
// Collective two-phase I/O
// ---------------------------------------------------------------------------

CollectiveGroup::CollectiveGroup(sim::Simulator& sim, std::uint32_t parties,
                                 CollectiveConfig config)
    : sim_(sim), parties_(parties), config_(config) {
  BPSIO_CHECK(parties_ >= 1, "collective group needs at least one party");
}

void MpiIo::read_collective(CollectiveGroup& group, fs::FileHandle h,
                            std::vector<Region> regions, fs::IoDoneFn done) {
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.offset < b.offset; });
  CollectiveGroup::Pending pending;
  pending.io = this;
  pending.handle = h;
  pending.useful = regions_bytes(regions);
  pending.regions = std::move(regions);
  pending.start = client_.node().simulator().now();
  pending.op = trace::IoOpKind::read;
  pending.done = std::move(done);
  group.arrive(std::move(pending));
}

void MpiIo::write_collective(CollectiveGroup& group, fs::FileHandle h,
                             std::vector<Region> regions, fs::IoDoneFn done) {
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.offset < b.offset; });
  CollectiveGroup::Pending pending;
  pending.io = this;
  pending.handle = h;
  pending.useful = regions_bytes(regions);
  pending.regions = std::move(regions);
  pending.start = client_.node().simulator().now();
  pending.op = trace::IoOpKind::write;
  pending.done = std::move(done);
  group.arrive(std::move(pending));
}

void CollectiveGroup::arrive(Pending pending) {
  pending_.push_back(std::move(pending));
  if (pending_.size() == parties_) run_round();
}

void CollectiveGroup::run_round() {
  auto round = std::make_shared<std::vector<Pending>>(std::move(pending_));
  pending_.clear();

  // Union of all requested regions (two-phase I/O reads only data somebody
  // asked for — "file domains" cover the merged request set, not the raw
  // min..max extent, which may be mostly gap).
  std::vector<Region> all;
  for (const auto& p : *round) {
    all.insert(all.end(), p.regions.begin(), p.regions.end());
  }
  std::sort(all.begin(), all.end(), [](const Region& a, const Region& b) {
    return a.offset < b.offset;
  });
  std::vector<Region> merged;
  for (const auto& r : all) {
    if (r.length == 0) continue;
    if (!merged.empty() && r.offset <= merged.back().end()) {
      merged.back().length =
          std::max(merged.back().end(), r.end()) - merged.back().offset;
    } else {
      merged.push_back(r);
    }
  }
  Bytes total = 0;
  for (const auto& r : merged) total += r.length;

  if (total == 0) {
    for (auto& p : *round) {
      auto& node = p.io->client_.node();
      p.io->client_.trace().record(0, p.start, node.simulator().now(), p.op,
                                   trace::kIoCollective);
      sim_.schedule_now([done = std::move(p.done)]() { done({true, 0}); });
    }
    return;
  }
  // A collective call is one operation across the group; mixed read/write
  // rounds are not meaningful.
  const bool is_write = (*round)[0].op == trace::IoOpKind::write;

  const std::uint32_t aggregators =
      config_.aggregators == 0
          ? parties_
          : std::min(config_.aggregators, parties_);
  const Bytes share = (total + aggregators - 1) / aggregators;

  // Carve the merged request space into per-aggregator piece lists.
  std::vector<std::vector<Region>> domains(aggregators);
  {
    std::uint32_t agg = 0;
    Bytes filled = 0;
    for (const auto& run : merged) {
      Bytes pos = run.offset;
      Bytes left = run.length;
      while (left > 0) {
        const Bytes room = share - filled;
        const Bytes take = std::min(left, room);
        domains[agg].push_back(Region{pos, take});
        pos += take;
        left -= take;
        filled += take;
        if (filled == share && agg + 1 < aggregators) {
          ++agg;
          filled = 0;
        }
      }
    }
  }

  // The I/O phase: each aggregator streams its domain, chunked at
  // cb_buffer_size (reads for a read round, direct writes for a write round
  // — the domains cover exactly the merged request space, so there are no
  // holes to read-modify-write).
  auto io_phase = [this, round, domains, is_write](sim::JoinFn all_done) {
    sim::fan_out(
        sim_, domains.size(),
        [&](std::uint64_t a, sim::JoinFn one_done) {
          // Flatten this aggregator's domain into cb_buffer-sized chunks.
          auto stream = std::make_shared<DomainStream>();
          for (const auto& piece : domains[a]) {
            for (Bytes pos = piece.offset; pos < piece.end();
                 pos += config_.cb_buffer_size) {
              stream->chunks.push_back(Region{
                  pos, std::min(config_.cb_buffer_size, piece.end() - pos)});
            }
          }
          if (stream->chunks.empty()) {
            sim_.schedule_now(
                [one_done = std::move(one_done)]() { one_done(true); });
            return;
          }
          stream->round = round;
          stream->aggregator = a;
          stream->is_write = is_write;
          stream->done = std::move(one_done);
          stream_domain(std::move(stream), 0);
        },
        std::move(all_done));
  };

  // The exchange phase: every process pays the copy of its useful bytes
  // between its buffers and the aggregation buffers.
  auto exchange_phase = [this, round](sim::JoinFn all_done) {
    sim::fan_out(
        sim_, round->size(),
        [&](std::uint64_t i, sim::JoinFn one_done) {
          auto& node = (*round)[i].io->client_.node();
          node.compute(node.copy_time((*round)[i].useful),
                       [one_done = std::move(one_done)]() { one_done(true); });
        },
        std::move(all_done));
  };

  auto complete_all = [round]() {
    for (auto& p : *round) {
      auto& n = p.io->client_.node();
      const auto blocks = bytes_to_blocks(p.useful, p.io->client_.block_size());
      p.io->client_.trace().record(blocks, p.start, n.simulator().now(), p.op,
                                   trace::kIoCollective);
      p.done(fs::IoOutcome{true, p.useful});
    }
  };

  if (is_write) {
    // write: exchange data to aggregators, then write the file domains.
    exchange_phase([io_phase, complete_all](bool) mutable {
      io_phase([complete_all](bool) mutable { complete_all(); });
    });
  } else {
    // read: read the file domains, then redistribute to the requesters.
    io_phase([exchange_phase, complete_all](bool) mutable {
      exchange_phase([complete_all](bool) mutable { complete_all(); });
    });
  }
}

void CollectiveGroup::stream_domain(std::shared_ptr<DomainStream> stream,
                                    std::size_t i) {
  if (i >= stream->chunks.size()) {
    const sim::JoinFn done = std::move(stream->done);
    done(true);
    return;
  }
  Pending& me = (*stream->round)[stream->aggregator];
  const Region c = stream->chunks[i];
  auto cont = [this, stream, i](fs::IoOutcome) mutable {
    stream_domain(std::move(stream), i + 1);
  };
  if (stream->is_write) {
    me.io->client_.backend().write(me.handle, c.offset, c.length,
                                   std::move(cont));
  } else {
    me.io->client_.backend_read_unrecorded(me.handle, c.offset, c.length,
                                           std::move(cont));
  }
}

}  // namespace bpsio::mio
