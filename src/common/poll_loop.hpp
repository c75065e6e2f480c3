// Shared poll()-round bookkeeping for the ingest server (ingest/server.hpp)
// behind bpsio_agentd and bpsio_collectord: its poll loop and its I/O
// workers.
//
// Both run the same loop shape: a few listener fds whose readiness
// means "accept / answer now", plus a growing-and-shrinking set of
// connection fds serviced by index. The fiddly part — and the part that has
// already bitten once — is that servicing mutates the fd set mid-round:
//
//  * a listener callback may ACCEPT new connections, so the revents scan
//    must be bounded by the snapshot taken when poll() was armed, never by
//    the live connection count (the PR-5 out-of-bounds regression);
//  * a connection callback may CLOSE-AND-REMOVE its connection, shifting
//    every later index, so the scan must stop there and rediscover the
//    remaining readiness on the next round instead of reusing stale revents.
//
// PollLoop owns exactly that bookkeeping and nothing else: callers keep
// their own per-connection state in a parallel vector and stay in charge of
// accept(), recv(), and close().
#pragma once

#include <poll.h>

#include <functional>
#include <span>
#include <vector>

#include "common/result.hpp"

namespace bpsio {

class PollLoop {
 public:
  /// Register a listener; `on_ready` runs whenever `fd` polls readable.
  /// The callback may grow the caller's connection set — only the snapshot
  /// passed to the round() that armed the poll is scanned this round.
  void add_listener(int fd, std::function<void()> on_ready);

  /// One poll() round over the listeners plus `conn_fds` (the caller's
  /// connection fds, index-aligned with its own state). Ready listeners run
  /// first; then `on_conn(i)` services each ready connection.
  ///
  /// `on_conn(i)` returns false when it closed and removed connection `i`
  /// from the caller's set: indices have shifted, so the scan stops and the
  /// next round re-polls whatever readiness remains. Returning true means
  /// the connection (and the index space) survived.
  ///
  /// EINTR is not an error; a hard poll() failure is.
  Status round(std::span<const int> conn_fds, int timeout_ms,
               const std::function<bool(std::size_t)>& on_conn);

 private:
  struct Listener {
    int fd;
    std::function<void()> on_ready;
  };

  std::vector<Listener> listeners_;
  std::vector<pollfd> fds_;  ///< scratch, reused across rounds
};

}  // namespace bpsio
