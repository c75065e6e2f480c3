// The ingest server behind bpsio_agentd and bpsio_collectord.
//
// The paper's method gathers every process's records into one global
// collection before computing B and T (§III.B). The server is that
// collection run as a service: capture clients (the LD_PRELOAD interposer
// with BPSIO_CAPTURE_SOCKET set) or downstream forwarders connect over a
// Unix-domain socket or loopback TCP and ship frames of v2 IoRecords
// (trace/frame.hpp); every decoded frame goes to
//
//   * a Store (ingest/store.hpp): MetricAggregator keeps windows per pid
//     (bpsio_agentd), TenantShards per tenant (bpsio_collectord); either
//     is served as Prometheus plaintext on GET /metrics and as a CSV
//     snapshot rewritten every csv_interval;
//   * a spool per (connection, origin stream) when a drain is requested;
//   * an upstream ForwardLink (agent/forward.hpp) when forwarding, under
//     one upstream stream id per (connection, origin stream).
//
// Keying spools and forwarded streams on the (connection, origin stream)
// pair is what keeps every spool start-ordered — the framing contract
// orders records within one pair, not across a connection's streams — so
// shutdown can k-way merge the spools with MergedSource into one sorted v2
// trace, exactly the way bpsio_report merges per-thread spill files. A
// relay (agentd -> agentd -> collectord) keeps that order at every hop,
// and every drain yields bit-identical B and T to a direct file spill of
// the same records.
//
// Threading: with io_threads == 0 the connections are serviced inline on
// the poll loop that also accepts, answers HTTP, flushes the forward link
// at each round's tail and ticks the CSV snapshot — no threads, so the
// single-threaded MetricAggregator and ForwardLink are safe. With
// io_threads > 0 accepted connections go round-robin to worker threads
// through a mutex-protected inbox; each worker owns its connections'
// decoders and spools outright, and the store must be thread-safe.
//
// Failure isolation: a malformed frame poisons and drops only its
// connection; a peer dying mid-frame discards only the torn tail (never
// acknowledged — its sender re-ships it through its spill path). A spool
// that cannot be opened, fails an append or fails its close drops its
// connection too; live metrics keep serving, and run() returns an error
// instead of writing a drain that would be missing records.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "agent/forward.hpp"
#include "common/mutex.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "ingest/store.hpp"
#include "trace/frame.hpp"

namespace bpsio::trace {
class SpillWriter;  // spill_writer.hpp
}

namespace bpsio::ingest {

struct ServerOptions {
  /// Unix-domain socket path to listen on (required). An existing socket
  /// file at this path is replaced.
  std::string socket_path;
  /// Loopback TCP ingest port; 0 picks an ephemeral port, -1 = none.
  int tcp_port = -1;
  /// When non-empty, the bound TCP ingest port is written here.
  std::string tcp_port_file;

  /// Loopback /metrics port; 0 picks an ephemeral port, -1 = no HTTP.
  int http_port = 0;
  /// When non-empty, the bound HTTP port is written here (one decimal
  /// line) — the handshake for scripts that start with an ephemeral port.
  std::string port_file;

  /// When non-empty, Store::csv_snapshot() is rewritten atomically here
  /// every csv_interval.
  std::string csv_path;
  SimDuration csv_interval = SimDuration::from_seconds(1);

  /// When non-empty, shutdown writes every received record here as one
  /// merged, (start, end)-ordered v2 .bpstrace.
  std::string drain_path;
  /// When non-empty, shutdown also writes one merged trace per tenant at
  /// <dir>/tenant-<name>.bpstrace (tenant ids are filename-safe).
  std::string drain_tenant_dir;
  /// Spool directory backing the drains (required with either; created if
  /// missing; emptied and removed after a successful drain).
  std::string spool_dir;

  /// Worker threads servicing connections; 0 services them inline.
  std::size_t io_threads = 0;
  /// Ship every frame upstream (inline servers only).
  std::optional<agent::ForwardOptions> forward;

  /// When > 0, run() returns on its own once this many connections have
  /// been accepted and all of them have closed — the deterministic exit
  /// tests and CI use instead of a signal.
  std::uint64_t expect_clients = 0;
  /// External stop flag (e.g. set by a SIGTERM handler), polled every loop
  /// round. May be null.
  const std::atomic<bool>* stop = nullptr;
};

class Server {
 public:
  /// `store` must outlive the server.
  Server(ServerOptions options, Store& store);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listeners, write the port files, create the spool directory,
  /// connect the forward link. Call once before run().
  Status start();

  /// Serve until the stop flag is raised or expect_clients is satisfied,
  /// then service and close the remaining connections and — when
  /// configured — drain. Returns the first hard failure: a failed poll, a
  /// spool failure during the run, or a failed drain; never a single
  /// client's bad input.
  Status run();

  /// The bound HTTP port (valid after start() when http_port >= 0).
  int http_port() const { return bound_http_port_; }
  /// The bound TCP ingest port (valid after start() when tcp_port >= 0).
  int tcp_port() const { return bound_tcp_port_; }

  /// Transport counters. The forward figures are the poll thread's; read
  /// them from another thread only after run() returned.
  Transport transport() const;

 private:
  struct Stream {
    std::unique_ptr<trace::SpillWriter> spool;
    std::string spool_path;
    std::uint64_t upstream_id = 0;  ///< forward link stream id
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    trace::FrameDecoder decoder;
    Store::Slot* slot = nullptr;
    bool slot_resolved = false;
    std::uint64_t frames_counted = 0;
    std::map<std::uint64_t, Stream> streams;  ///< by origin stream id
  };

  /// Connections serviced by one thread: a worker, or the poll loop itself
  /// when io_threads == 0. Only the inbox crosses threads.
  struct Worker {
    Mutex inbox_mu;
    std::vector<std::pair<int, std::uint64_t>> inbox  // (fd, conn id)
        BPSIO_GUARDED_BY(inbox_mu);
    std::atomic<bool> finish{false};
    std::vector<Conn> conns;
    std::vector<int> conn_fds;  ///< index-aligned with conns
    std::thread thread;
  };

  struct ClosedSpool {
    std::string path;
    std::string tenant;
  };

  void accept_conns(int listener_fd);
  void accept_http();
  void run_worker(Worker& worker);
  void adopt_inbox(Worker& worker);
  /// Service connection `i` of `worker`; false when it closed and left the
  /// set (the PollLoop contract).
  bool service_at(Worker& worker, std::size_t i);
  /// Returns false when the connection is finished and has been closed.
  bool service(Conn& conn);
  /// Spool and forward one decoded frame of `stream`; false on a spool
  /// failure.
  bool route(Conn& conn, std::uint64_t stream,
             std::span<const trace::IoRecord> frame);
  void close_conn(Conn& conn, bool record_loss_ok);
  /// Final service pass and close for every connection `worker` still has.
  void finish_conns(Worker& worker);
  std::string metrics_body();
  void write_csv_snapshot();
  Status drain();

  ServerOptions options_;
  Store& store_;
  std::unique_ptr<agent::ForwardLink> forward_;
  int listen_fd_ = -1;
  int tcp_fd_ = -1;
  int http_fd_ = -1;
  int bound_tcp_port_ = -1;
  int bound_http_port_ = -1;
  bool spooling_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t conn_serial_ = 0;    ///< poll thread only (accept path)
  std::uint64_t stream_serial_ = 0;  ///< poll thread only (forwarding)
  std::atomic<std::uint64_t> connected_total_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_total_{0};
  std::atomic<std::uint64_t> bad_frames_total_{0};
  std::atomic<std::uint64_t> streams_total_{0};
  std::atomic<bool> spool_error_{false};
  Mutex spool_mu_;
  std::vector<ClosedSpool> closed_spools_ BPSIO_GUARDED_BY(spool_mu_);
  std::int64_t last_csv_ns_ = 0;
  bool started_ = false;
};

}  // namespace bpsio::ingest
