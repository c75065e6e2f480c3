#include "ingest/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/net_util.hpp"
#include "common/poll_loop.hpp"
#include "common/wallclock.hpp"
#include "trace/merge.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio::ingest {
namespace {

constexpr int kPollIntervalMs = 50;
constexpr std::size_t kRecvChunk = 64 * 1024;

/// Warnings name the daemon that prints them (bpsio_agentd,
/// bpsio_collectord): glibc's short program name.
const char* self() { return program_invocation_short_name; }

std::string in_dir(const std::string& dir, const std::string& name) {
  return dir.empty() || dir.back() == '/' ? dir + name : dir + "/" + name;
}

}  // namespace

Server::Server(ServerOptions options, Store& store)
    : options_(std::move(options)), store_(store) {}

Server::~Server() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->finish.store(true, std::memory_order_release);
      worker->thread.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
}

Status Server::start() {
  if (options_.socket_path.empty()) {
    return Error{Errc::invalid_argument, "socket path is required"};
  }
  if (options_.forward && options_.io_threads > 0) {
    // ForwardLink and the forwarded stream ids belong to one thread.
    return Error{Errc::invalid_argument,
                 "forwarding needs connections serviced inline "
                 "(io_threads 0)"};
  }
  spooling_ =
      !options_.drain_path.empty() || !options_.drain_tenant_dir.empty();
  if (spooling_ && options_.spool_dir.empty()) {
    return Error{Errc::invalid_argument, "draining requires a spool directory"};
  }
  if (spooling_) {
    std::error_code ec;
    std::filesystem::create_directories(options_.spool_dir, ec);
    if (ec) {
      return Error{Errc::io_error,
                   "cannot create spool dir " + options_.spool_dir};
    }
  }

  listen_fd_ = net::bind_unix_listener(options_.socket_path, 128);
  if (listen_fd_ < 0) {
    return Error{Errc::io_error,
                 "cannot bind/listen on " + options_.socket_path};
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = net::bind_loopback_listener(options_.tcp_port, 128,
                                          &bound_tcp_port_);
    if (tcp_fd_ < 0) {
      return Error{Errc::io_error, "cannot bind TCP ingest port " +
                                       std::to_string(options_.tcp_port)};
    }
    if (!options_.tcp_port_file.empty() &&
        !net::write_file_atomic(options_.tcp_port_file,
                                std::to_string(bound_tcp_port_) + "\n")) {
      return Error{Errc::io_error,
                   "cannot write TCP port file " + options_.tcp_port_file};
    }
  }
  if (options_.http_port >= 0) {
    http_fd_ = net::bind_loopback_listener(options_.http_port, 16,
                                           &bound_http_port_);
    if (http_fd_ < 0) {
      return Error{Errc::io_error, "cannot bind HTTP port " +
                                       std::to_string(options_.http_port)};
    }
    if (!options_.port_file.empty() &&
        !net::write_file_atomic(options_.port_file,
                                std::to_string(bound_http_port_) + "\n")) {
      return Error{Errc::io_error,
                   "cannot write port file " + options_.port_file};
    }
  }
  if (options_.forward) {
    forward_ = std::make_unique<agent::ForwardLink>(*options_.forward);
    if (const Status connected = forward_->connect(); !connected.ok()) {
      return connected;
    }
  }

  // An inline server keeps its connections in one worker without a thread.
  workers_.clear();
  for (std::size_t i = 0; i < std::max<std::size_t>(options_.io_threads, 1);
       ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  last_csv_ns_ = monotonic_ns();
  started_ = true;
  return {};
}

Transport Server::transport() const {
  Transport t;
  t.connected_total = connected_total_.load(std::memory_order_relaxed);
  t.active = active_.load(std::memory_order_relaxed);
  t.frames_total = frames_total_.load(std::memory_order_relaxed);
  t.bad_frames_total = bad_frames_total_.load(std::memory_order_relaxed);
  t.streams_total = streams_total_.load(std::memory_order_relaxed);
  if (forward_ != nullptr) t.forward = forward_->stats();
  return t;
}

void Server::accept_conns(int listener_fd) {
  for (;;) {
    const int fd =
        ::accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient: nothing more to accept now
    const std::uint64_t id = ++conn_serial_;
    connected_total_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    Worker& worker = *workers_[id % workers_.size()];
    MutexLock lock(worker.inbox_mu);
    worker.inbox.emplace_back(fd, id);
  }
}

void Server::accept_http() {
  for (;;) {
    const int fd = ::accept4(http_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;
    net::serve_plain_http(fd, [this] { return metrics_body(); });
  }
}

std::string Server::metrics_body() {
  store_.advance_windows(SimTime(monotonic_ns()));
  return store_.prometheus_text(transport());
}

void Server::write_csv_snapshot() {
  store_.advance_windows(SimTime(monotonic_ns()));
  if (!net::write_file_atomic(options_.csv_path, store_.csv_snapshot())) {
    std::fprintf(stderr, "%s: cannot write CSV snapshot %s\n", self(),
                 options_.csv_path.c_str());
  }
}

void Server::adopt_inbox(Worker& worker) {
  std::vector<std::pair<int, std::uint64_t>> adopted;
  {
    MutexLock lock(worker.inbox_mu);
    adopted.swap(worker.inbox);
  }
  for (const auto& [fd, id] : adopted) {
    Conn conn;
    conn.fd = fd;
    conn.id = id;
    worker.conns.push_back(std::move(conn));
    worker.conn_fds.push_back(fd);
  }
}

bool Server::route(Conn& conn, std::uint64_t stream_id,
                   std::span<const trace::IoRecord> frame) {
  auto [it, fresh] = conn.streams.try_emplace(stream_id);
  Stream& stream = it->second;
  if (fresh) {
    if (forward_ != nullptr) stream.upstream_id = ++stream_serial_;
    if (spooling_) {
      char name[64];
      std::snprintf(name, sizeof name, "c%020llu-s%020llu.bpstrace",
                    static_cast<unsigned long long>(conn.id),
                    static_cast<unsigned long long>(stream_id));
      stream.spool_path = in_dir(options_.spool_dir, name);
      stream.spool = std::make_unique<trace::SpillWriter>(stream.spool_path);
      streams_total_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (forward_ != nullptr) forward_->append(stream.upstream_id, frame);
  if (stream.spool == nullptr) return true;
  if (stream.spool->ok()) stream.spool->append(frame);
  return stream.spool->ok();
}

bool Server::service(Conn& conn) {
  char buf[kRecvChunk];
  bool spool_failed = false;
  // Each completed frame reaches the store, the forward link and the
  // stream's spool as one span over the recv buffer (or the decoder's
  // scratch for split frames) — no per-record copy on this path beyond the
  // spool's and the forward batch's bulk fills.
  const trace::FrameDecoder::TaggedFrameSink sink =
      [this, &conn, &spool_failed](std::uint64_t stream,
                                   std::span<const trace::IoRecord> frame) {
        if (!conn.slot_resolved) {
          const std::string& announced = conn.decoder.tenant();
          conn.slot = store_.slot(
              announced.empty() ? std::string(kDefaultTenant) : announced);
          conn.slot_resolved = true;
        }
        store_.ingest(conn.slot, frame);
        if (!route(conn, stream, frame)) spool_failed = true;
      };
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn, /*record_loss_ok=*/true);
      return false;
    }
    if (n == 0) {  // orderly EOF from the peer's close()
      close_conn(conn, conn.decoder.pending_bytes() == 0);
      return false;
    }
    const Status fed =
        conn.decoder.feed(buf, static_cast<std::size_t>(n), sink);
    frames_total_.fetch_add(conn.decoder.frames_decoded() - conn.frames_counted,
                            std::memory_order_relaxed);
    conn.frames_counted = conn.decoder.frames_decoded();
    if (!fed.ok()) {
      bad_frames_total_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "%s: dropping connection: %s\n", self(),
                   fed.to_string().c_str());
      close_conn(conn, /*record_loss_ok=*/true);
      return false;
    }
    if (spool_failed) {
      // The drain can no longer hold this connection's records: keep
      // serving live metrics for everyone else, drop this connection, and
      // fail the final drain (close_conn reports the spool).
      close_conn(conn, /*record_loss_ok=*/true);
      return false;
    }
  }
  return true;
}

void Server::close_conn(Conn& conn, bool record_loss_ok) {
  if (!record_loss_ok) {
    // A trailing partial frame means the peer died mid-send. Those records
    // were never acknowledged as delivered, so the sender re-shipped them
    // through its spill path — the server just notes the torn tail.
    std::fprintf(stderr,
                 "%s: connection closed mid-frame (%zu bytes discarded; "
                 "sender re-ships unacknowledged buffers)\n",
                 self(), conn.decoder.pending_bytes());
  }
  const std::string& announced = conn.decoder.tenant();
  const std::string tenant =
      announced.empty() ? std::string(kDefaultTenant) : announced;
  for (auto& [stream_id, stream] : conn.streams) {
    if (forward_ != nullptr) forward_->stream_done(stream.upstream_id);
    if (stream.spool == nullptr) continue;
    const bool was_ok = stream.spool->ok();
    const Status closed = stream.spool->close();
    if (!was_ok || !closed.ok()) {
      std::fprintf(stderr, "%s: spool %s failed (%s); no drain will be "
                           "written\n",
                   self(), stream.spool_path.c_str(),
                   closed.to_string().c_str());
      spool_error_.store(true, std::memory_order_relaxed);
      continue;
    }
    MutexLock lock(spool_mu_);
    closed_spools_.push_back(ClosedSpool{stream.spool_path, tenant});
  }
  conn.streams.clear();
  ::close(conn.fd);
  conn.fd = -1;
  active_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::service_at(Worker& worker, std::size_t i) {
  if (service(worker.conns[i])) return true;
  worker.conns.erase(worker.conns.begin() + static_cast<std::ptrdiff_t>(i));
  worker.conn_fds.erase(worker.conn_fds.begin() +
                        static_cast<std::ptrdiff_t>(i));
  return false;
}

void Server::finish_conns(Worker& worker) {
  for (Conn& conn : worker.conns) {
    if (!service(conn)) continue;  // closed itself (EOF/error)
    close_conn(conn, conn.decoder.pending_bytes() == 0);
  }
  worker.conns.clear();
  worker.conn_fds.clear();
}

void Server::run_worker(Worker& worker) {
  PollLoop loop;
  for (;;) {
    // Adopt after reading the flag: connections enqueued before finish was
    // raised still get the final service pass.
    const bool finishing = worker.finish.load(std::memory_order_acquire);
    adopt_inbox(worker);
    if (finishing) break;
    const Status polled =
        loop.round(worker.conn_fds, kPollIntervalMs,
                   [&](std::size_t i) { return service_at(worker, i); });
    if (!polled.ok()) {
      std::fprintf(stderr, "%s: worker poll failed: %s\n", self(),
                   polled.to_string().c_str());
      break;
    }
  }
  finish_conns(worker);
}

Status Server::run() {
  BPSIO_CHECK(started_, "ingest::Server::run() before start()");
  const bool threaded = options_.io_threads > 0;
  if (threaded) {
    for (auto& worker : workers_) {
      Worker* w = worker.get();
      w->thread = std::thread([this, w] { run_worker(*w); });
    }
  }
  // The poll loop's own connections (inline servers only).
  Worker& local = *workers_.front();

  PollLoop loop;
  loop.add_listener(listen_fd_, [this] { accept_conns(listen_fd_); });
  if (tcp_fd_ >= 0) {
    loop.add_listener(tcp_fd_, [this] { accept_conns(tcp_fd_); });
  }
  if (http_fd_ >= 0) loop.add_listener(http_fd_, [this] { accept_http(); });

  Status failure;
  for (;;) {
    if (options_.stop != nullptr &&
        options_.stop->load(std::memory_order_relaxed)) {
      break;
    }
    if (options_.expect_clients > 0 &&
        connected_total_.load(std::memory_order_relaxed) >=
            options_.expect_clients &&
        active_.load(std::memory_order_relaxed) == 0) {
      break;
    }
    if (!threaded) adopt_inbox(local);
    const std::span<const int> conn_fds =
        threaded ? std::span<const int>() : local.conn_fds;
    const Status polled =
        loop.round(conn_fds, kPollIntervalMs,
                   [&](std::size_t i) { return service_at(local, i); });
    if (!polled.ok()) {
      failure = polled;
      break;
    }
    // Ship partial forward batches at the round tail: forwarding latency is
    // bounded by one poll interval even under a trickle of records.
    if (forward_ != nullptr) forward_->flush_all();
    if (!options_.csv_path.empty()) {
      const std::int64_t now = monotonic_ns();
      if (now - last_csv_ns_ >= options_.csv_interval.ns()) {
        write_csv_snapshot();
        last_csv_ns_ = now;
      }
    }
  }

  // Shutdown: stop accepting, then give every connection a final service
  // pass over what already arrived and close it.
  ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
  listen_fd_ = -1;
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  if (threaded) {
    for (auto& worker : workers_) {
      worker->finish.store(true, std::memory_order_release);
    }
    for (auto& worker : workers_) worker->thread.join();
  } else {
    adopt_inbox(local);
    finish_conns(local);
  }
  // Close any accepted-but-never-adopted fds (raced with shutdown).
  for (auto& worker : workers_) {
    MutexLock lock(worker->inbox_mu);
    for (const auto& [fd, id] : worker->inbox) {
      ::close(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
    worker->inbox.clear();
  }
  if (forward_ != nullptr) forward_->close();
  if (!options_.csv_path.empty()) write_csv_snapshot();

  if (!failure.ok()) return failure;
  if (spool_error_.load(std::memory_order_relaxed)) {
    return Error{Errc::io_error,
                 "spool failure during the run; refusing to write an "
                 "incomplete drain"};
  }
  if (spooling_) return drain();
  return {};
}

Status Server::drain() {
  // Every connection is closed; closed_spools_ is complete. Each spool is
  // one (connection, origin stream)'s start-ordered records, so the k-way
  // merge needs no sort — the contract the spill-file pipeline relies on.
  // Sorting by path fixes the merge's tie order.
  std::vector<ClosedSpool> spools;
  {
    MutexLock lock(spool_mu_);
    spools.swap(closed_spools_);
  }
  std::sort(spools.begin(), spools.end(),
            [](const ClosedSpool& a, const ClosedSpool& b) {
              return a.path < b.path;
            });

  if (!options_.drain_path.empty()) {
    std::vector<std::string> paths;
    paths.reserve(spools.size());
    for (const ClosedSpool& s : spools) paths.push_back(s.path);
    if (const Status merged =
            trace::merge_trace_files(std::move(paths), options_.drain_path);
        !merged.ok()) {
      return Error{Errc::io_error, "drain failed: " + merged.to_string()};
    }
  }
  if (!options_.drain_tenant_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.drain_tenant_dir, ec);
    if (ec) {
      return Error{Errc::io_error,
                   "cannot create drain dir " + options_.drain_tenant_dir};
    }
    std::map<std::string, std::vector<std::string>> by_tenant;
    for (const ClosedSpool& s : spools) by_tenant[s.tenant].push_back(s.path);
    for (auto& [tenant, paths] : by_tenant) {
      const std::string out = in_dir(options_.drain_tenant_dir,
                                     "tenant-" + tenant + ".bpstrace");
      if (const Status merged = trace::merge_trace_files(paths, out);
          !merged.ok()) {
        return Error{Errc::io_error, "tenant drain failed for " + tenant +
                                         ": " + merged.to_string()};
      }
    }
  }
  for (const ClosedSpool& s : spools) {
    std::error_code ec;
    std::filesystem::remove(s.path, ec);
  }
  std::error_code ec;
  std::filesystem::remove(options_.spool_dir, ec);  // only when now empty
  return {};
}

}  // namespace bpsio::ingest
