#include "capture/record_shipper.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/wallclock.hpp"
#include "trace/frame.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio::capture {
namespace {

std::atomic<bool> g_warned_socket{false};
std::atomic<bool> g_warned_dead{false};

/// Best-effort full send with SIGPIPE suppressed; false on any error.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace

void warn_once(std::atomic<bool>& flag, const char* what) {
  if (!flag.exchange(true)) {
    std::fprintf(stderr, "bpsio-capture: %s\n", what);
  }
}

RecordShipper::RecordShipper(const CaptureConfig& config, std::uint32_t pid,
                             std::uint32_t tid)
    : config_(&config), pid_(pid), tid_(tid) {}

RecordShipper::~RecordShipper() { close(); }

bool RecordShipper::try_connect() {
  const std::string& path = config_->socket_path;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    warn_once(g_warned_socket,
              "BPSIO_CAPTURE_SOCKET path too long for sockaddr_un; falling "
              "back to file spill");
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  socket_fd_ = fd;
  return true;
}

bool RecordShipper::open_spill() {
  if (config_->dir.empty()) return false;
  const std::string path =
      capture_trace_path(*config_, pid_, tid_, realtime_ns());
  writer_ = new trace::SpillWriter(path, config_->buffer_records);
  if (!writer_->ok()) {
    delete writer_;
    writer_ = nullptr;
    return false;
  }
  return true;
}

bool RecordShipper::ensure_backend() {
  if (backend_ != Backend::unopened) return backend_ != Backend::dead;
  if (!config_->socket_path.empty()) {
    if (try_connect()) {
      backend_ = Backend::socket;
      return true;
    }
    warn_once(g_warned_socket,
              "bpsio_agentd socket unreachable; falling back to file spill");
  }
  if (open_spill()) {
    backend_ = Backend::spill;
    return true;
  }
  die(config_->dir.empty()
          ? "no transport available (daemon unreachable, no "
            "BPSIO_CAPTURE_DIR); capture disabled"
          : "cannot open trace file in BPSIO_CAPTURE_DIR; capture disabled");
  return false;
}

bool RecordShipper::send_frame(std::span<const trace::IoRecord> records) {
  frame_buf_.clear();
  trace::encode_frame(records, frame_buf_);
  return send_all(socket_fd_, frame_buf_.data(), frame_buf_.size());
}

bool RecordShipper::spill(std::span<const trace::IoRecord> records) {
  writer_->append(records);
  if (!writer_->checkpoint().ok()) {
    delete writer_;
    writer_ = nullptr;
    die("trace spill failed; capture disabled");
    return false;
  }
  return true;
}

bool RecordShipper::ship(std::span<const trace::IoRecord> records) {
  if (records.empty()) return backend_ != Backend::dead;
  if (!ensure_backend()) return false;
  if (backend_ == Backend::socket) {
    if (send_frame(records)) return true;
    // Daemon died mid-run. The failed frame was not (fully) received, so it
    // is not double-counted: re-ship this buffer through the spill path.
    ::close(socket_fd_);
    socket_fd_ = -1;
    warn_once(g_warned_socket,
              "bpsio_agentd connection lost; falling back to file spill");
    if (!open_spill()) {
      die(config_->dir.empty()
              ? "daemon lost and no BPSIO_CAPTURE_DIR; capture disabled"
              : "daemon lost and spill file unopenable; capture disabled");
      return false;
    }
    backend_ = Backend::spill;
  }
  return spill(records);
}

void RecordShipper::close() {
  if (socket_fd_ >= 0) {
    ::shutdown(socket_fd_, SHUT_RDWR);
    ::close(socket_fd_);
    socket_fd_ = -1;
  }
  if (writer_ != nullptr) {
    (void)writer_->close();
    delete writer_;
    writer_ = nullptr;
  }
  if (backend_ != Backend::dead) backend_ = Backend::unopened;
}

void RecordShipper::abandon_after_fork() {
  if (socket_fd_ >= 0) {
    ::close(socket_fd_);  // drops the child's reference only
    socket_fd_ = -1;
  }
  writer_ = nullptr;  // parent's file offset; leaked on purpose (small)
  backend_ = Backend::unopened;
}

void RecordShipper::die(const char* what) {
  warn_once(g_warned_dead, what);
  backend_ = Backend::dead;
}

}  // namespace bpsio::capture
