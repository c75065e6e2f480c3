#include "mio/io_client.hpp"

namespace bpsio::mio {

IoClient::IoClient(ClientNode& node, fs::FileApi& backend, std::uint32_t pid,
                   Bytes block_size)
    : node_(node), backend_(backend), pid_(pid), block_size_(block_size),
      trace_(pid) {}

void IoClient::enable_prefetch(PrefetchConfig config) {
  prefetch_ = std::make_unique<Prefetcher>(*this, config);
}

Result<fs::FileHandle> IoClient::create(const std::string& path, Bytes size) {
  return backend_.create(path, size);
}

Result<fs::FileHandle> IoClient::open(const std::string& path) {
  return backend_.open(path);
}

Status IoClient::close(fs::FileHandle h) {
  if (prefetch_) prefetch_->invalidate(h);
  return backend_.close(h);
}

void IoClient::backend_read_unrecorded(fs::FileHandle h, Bytes offset,
                                       Bytes size, fs::IoDoneFn done) {
  backend_.read(h, offset, size, std::move(done));
}

void IoClient::finish_access(SimTime start, Bytes requested,
                             trace::IoOpKind op, fs::IoOutcome outcome,
                             fs::IoDoneFn done) {
  // Copy-out/in between middleware buffers and the application, then record
  // the full application-visible interval. Failed accesses still count
  // toward B (Section III.A: "all successful accesses, non-successful
  // ones, and all concurrent ones").
  node_.compute(node_.copy_time(outcome.bytes),
                [this, start, requested, op, outcome,
                 done = std::move(done)]() {
                  const std::uint8_t flags =
                      outcome.ok ? trace::kIoOk : trace::kIoFailed;
                  const auto blocks = bytes_to_blocks(requested, block_size_);
                  trace_.record(blocks, start, node_.simulator().now(), op,
                                flags);
                  done(outcome);
                });
}

void IoClient::read(fs::FileHandle h, Bytes offset, Bytes size,
                    fs::IoDoneFn done) {
  const SimTime start = node_.simulator().now();
  node_.compute(node_.params().per_op_overhead, [this, h, offset, size, start,
                                                 done = std::move(done)]() mutable {
    auto complete = [this, start, size, done = std::move(done)](
                        fs::IoOutcome outcome) mutable {
      finish_access(start, size, trace::IoOpKind::read, outcome,
                    std::move(done));
    };
    if (prefetch_) {
      prefetch_->read(h, offset, size, std::move(complete));
    } else {
      backend_.read(h, offset, size, std::move(complete));
    }
  });
}

void IoClient::write(fs::FileHandle h, Bytes offset, Bytes size,
                     fs::IoDoneFn done) {
  const SimTime start = node_.simulator().now();
  // Write: copy-in is part of issuing the request; charge it with the
  // per-op overhead before the backend write.
  node_.compute(
      node_.params().per_op_overhead + node_.copy_time(size),
      [this, h, offset, size, start, done = std::move(done)]() mutable {
        backend_.write(h, offset, size,
                       [this, start, size, done = std::move(done)](
                           fs::IoOutcome outcome) mutable {
                         const std::uint8_t flags =
                             outcome.ok ? trace::kIoOk : trace::kIoFailed;
                         const auto blocks = bytes_to_blocks(size, block_size_);
                         trace_.record(blocks, start, node_.simulator().now(),
                                       trace::IoOpKind::write, flags);
                         done(outcome);
                       });
      });
}

void IoClient::flush(fs::FlushDoneFn done) { backend_.flush(std::move(done)); }

}  // namespace bpsio::mio
