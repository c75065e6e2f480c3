// Socket and scratch-directory helpers for the tests that talk to an
// ingest daemon (in process or as a spawned binary) over its sockets.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace bpsio::testutil {

/// A fresh directory under the system temp dir, named bpsio_<tag>.XXXXXX.
inline std::string make_temp_dir(const std::string& tag) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      ("bpsio_" + tag + ".XXXXXX"))
                         .string();
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return made != nullptr ? tmpl : std::string();
}

/// A blocking connection to the Unix socket at `path`, or -1.
inline int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline bool send_bytes(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::write(fd, data + off, n - off);
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

inline bool send_all(int fd, const std::vector<char>& bytes) {
  return send_bytes(fd, bytes.data(), bytes.size());
}

/// One blocking HTTP/1.0 GET against a loopback port; returns the full
/// response (headers + body), or "" on connection failure.
inline std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!send_bytes(fd, request.data(), request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace bpsio::testutil
