#include "capture/capture_config.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/config.hpp"
#include "trace/frame.hpp"

namespace bpsio::capture {

namespace {

void warn(std::vector<std::string>* warnings, std::string message) {
  if (warnings) warnings->push_back(std::move(message));
}

std::string get(const EnvLookup& env, const char* name) {
  const char* value = env(name);
  return value ? std::string(value) : std::string();
}

bool parse_flag(const EnvLookup& env, const char* name, bool dflt,
                std::vector<std::string>* warnings) {
  const std::string raw = get(env, name);
  if (raw.empty()) return dflt;
  if (raw == "1" || raw == "true" || raw == "on") return true;
  if (raw == "0" || raw == "false" || raw == "off") return false;
  warn(warnings, std::string(name) + "='" + raw + "' is not a boolean; using " +
                     (dflt ? "1" : "0"));
  return dflt;
}

std::vector<int> parse_fd_list(const std::string& raw, const char* name,
                               std::vector<int> dflt,
                               std::vector<std::string>* warnings) {
  if (raw.empty()) return dflt;
  std::vector<int> fds;
  std::size_t at = 0;
  while (at <= raw.size()) {
    const std::size_t comma = std::min(raw.find(',', at), raw.size());
    const std::string piece = raw.substr(at, comma - at);
    at = comma + 1;
    if (piece.empty()) continue;
    char* end = nullptr;
    const long fd = std::strtol(piece.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || fd < 0) {
      warn(warnings, std::string(name) + ": ignoring malformed fd '" + piece +
                         "' (want a comma-separated list of fds)");
      continue;
    }
    fds.push_back(static_cast<int>(fd));
  }
  std::sort(fds.begin(), fds.end());
  fds.erase(std::unique(fds.begin(), fds.end()), fds.end());
  return fds;
}

}  // namespace

CaptureConfig parse_capture_config(const EnvLookup& env,
                                   std::vector<std::string>* warnings) {
  CaptureConfig config;
  config.dir = get(env, "BPSIO_CAPTURE_DIR");
  config.socket_path = get(env, "BPSIO_CAPTURE_SOCKET");
  config.enabled = !config.dir.empty() || !config.socket_path.empty();
  if (!config.socket_path.empty() && config.dir.empty()) {
    warn(warnings,
         "BPSIO_CAPTURE_SOCKET is set without BPSIO_CAPTURE_DIR: if the "
         "daemon is unreachable, records will be dropped (no spill "
         "fallback directory)");
  }

  if (const std::string raw = get(env, "BPSIO_CAPTURE_BLOCK_SIZE");
      !raw.empty()) {
    const auto parsed = Config::parse_bytes(raw);
    if (parsed && *parsed > 0) {
      config.block_size = *parsed;
    } else {
      warn(warnings, "BPSIO_CAPTURE_BLOCK_SIZE='" + raw +
                         "' is not a positive size; using 512");
    }
  }

  if (const std::string raw = get(env, "BPSIO_CAPTURE_BUFFER_RECORDS");
      !raw.empty()) {
    char* end = nullptr;
    const long long records = std::strtoll(raw.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && records > 0) {
      config.buffer_records = static_cast<std::size_t>(records);
      if (config.buffer_records > trace::kMaxFrameRecords) {
        config.buffer_records = trace::kMaxFrameRecords;
        // One flushed buffer is one socket frame; a larger buffer would be
        // a frame every daemon rejects.
        warn(warnings, "BPSIO_CAPTURE_BUFFER_RECORDS='" + raw +
                           "' exceeds the largest frame a daemon accepts; "
                           "using " +
                           std::to_string(trace::kMaxFrameRecords));
      }
    } else {
      warn(warnings, "BPSIO_CAPTURE_BUFFER_RECORDS='" + raw +
                         "' is not a positive count; using 4096");
    }
  }

  config.capture_all_fds =
      parse_flag(env, "BPSIO_CAPTURE_ALL_FDS", false, warnings);
  config.record_fsync = parse_flag(env, "BPSIO_CAPTURE_FSYNC", false, warnings);
  config.include_fds =
      parse_fd_list(get(env, "BPSIO_CAPTURE_INCLUDE_FDS"),
                    "BPSIO_CAPTURE_INCLUDE_FDS", {}, warnings);
  config.exclude_fds =
      parse_fd_list(get(env, "BPSIO_CAPTURE_EXCLUDE_FDS"),
                    "BPSIO_CAPTURE_EXCLUDE_FDS", {0, 1, 2}, warnings);
  return config;
}

bool fd_passes_filters(const CaptureConfig& config, int fd) {
  if (!config.include_fds.empty()) {
    return std::binary_search(config.include_fds.begin(),
                              config.include_fds.end(), fd);
  }
  return !std::binary_search(config.exclude_fds.begin(),
                             config.exclude_fds.end(), fd);
}

std::string capture_trace_path(const CaptureConfig& config, std::uint32_t pid,
                               std::uint32_t tid, std::int64_t stamp_ns) {
  std::string path = config.dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "bpsio-" + std::to_string(pid) + "-" + std::to_string(tid) + "-" +
          std::to_string(stamp_ns) + ".bpstrace";
  return path;
}

}  // namespace bpsio::capture
