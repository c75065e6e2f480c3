// Unit tests for the capture subsystem's env-var configuration layer
// (src/capture/capture_config.hpp) — the only part of the LD_PRELOAD
// library that is pure policy, so it gets direct coverage here; the
// interposer itself is exercised end to end by test_capture_e2e.cpp.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "capture/capture_config.hpp"
#include "trace/frame.hpp"

namespace bpsio::capture {
namespace {

/// EnvLookup over a plain map, so each test declares exactly the
/// environment it means.
class FakeEnv {
 public:
  FakeEnv(std::initializer_list<std::map<std::string, std::string>::value_type>
              vars)
      : vars_(vars) {}

  EnvLookup lookup() const {
    return [this](const char* name) -> const char* {
      const auto it = vars_.find(name);
      return it == vars_.end() ? nullptr : it->second.c_str();
    };
  }

 private:
  std::map<std::string, std::string> vars_;
};

TEST(CaptureConfig, DisabledWithoutCaptureDir) {
  const FakeEnv env({});
  std::vector<std::string> warnings;
  const CaptureConfig config = parse_capture_config(env.lookup(), &warnings);
  EXPECT_FALSE(config.enabled);
  EXPECT_TRUE(warnings.empty());
  // Defaults: the paper's 512-byte block, 4096-record buffers, stdio
  // excluded, fsync not recorded.
  EXPECT_EQ(config.block_size, 512u);
  EXPECT_EQ(config.buffer_records, 4096u);
  EXPECT_FALSE(config.capture_all_fds);
  EXPECT_FALSE(config.record_fsync);
  EXPECT_TRUE(config.include_fds.empty());
  EXPECT_EQ(config.exclude_fds, (std::vector<int>{0, 1, 2}));
}

TEST(CaptureConfig, FullOverride) {
  const FakeEnv env({
      {"BPSIO_CAPTURE_DIR", "/tmp/traces"},
      {"BPSIO_CAPTURE_BLOCK_SIZE", "4K"},
      {"BPSIO_CAPTURE_BUFFER_RECORDS", "128"},
      {"BPSIO_CAPTURE_ALL_FDS", "1"},
      {"BPSIO_CAPTURE_FSYNC", "on"},
      {"BPSIO_CAPTURE_EXCLUDE_FDS", "2,7,2"},
  });
  std::vector<std::string> warnings;
  const CaptureConfig config = parse_capture_config(env.lookup(), &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings.front();
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.dir, "/tmp/traces");
  EXPECT_EQ(config.block_size, 4096u);
  EXPECT_EQ(config.buffer_records, 128u);
  EXPECT_TRUE(config.capture_all_fds);
  EXPECT_TRUE(config.record_fsync);
  EXPECT_EQ(config.exclude_fds, (std::vector<int>{2, 7}));  // deduped, sorted
}

TEST(CaptureConfig, MalformedValuesFallBackWithWarnings) {
  // An LD_PRELOAD library must never abort the host over a typo: every
  // malformed value keeps its default and surfaces as a warning string.
  const FakeEnv env({
      {"BPSIO_CAPTURE_DIR", "/tmp/traces"},
      {"BPSIO_CAPTURE_BLOCK_SIZE", "banana"},
      {"BPSIO_CAPTURE_BUFFER_RECORDS", "-5"},
      {"BPSIO_CAPTURE_ALL_FDS", "maybe"},
      {"BPSIO_CAPTURE_EXCLUDE_FDS", "1,x,3"},
  });
  std::vector<std::string> warnings;
  const CaptureConfig config = parse_capture_config(env.lookup(), &warnings);
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.block_size, 512u);
  EXPECT_EQ(config.buffer_records, 4096u);
  EXPECT_FALSE(config.capture_all_fds);
  // Malformed list entries are skipped, valid ones kept.
  EXPECT_EQ(config.exclude_fds, (std::vector<int>{1, 3}));
  EXPECT_EQ(warnings.size(), 4u);
}

TEST(CaptureConfig, OversizedBufferIsClampedToTheFrameLimit) {
  // One flushed buffer is one socket frame: a buffer above the largest
  // frame a daemon accepts is clamped (with a warning) rather than sized
  // to exhaust memory or turn every flush into a rejected frame.
  for (const char* raw : {"99999999999", "1048577",
                          "99999999999999999999999999"}) {
    const FakeEnv env({
        {"BPSIO_CAPTURE_DIR", "/tmp/traces"},
        {"BPSIO_CAPTURE_BUFFER_RECORDS", raw},
    });
    std::vector<std::string> warnings;
    const CaptureConfig config = parse_capture_config(env.lookup(), &warnings);
    EXPECT_EQ(config.buffer_records, trace::kMaxFrameRecords) << raw;
    ASSERT_EQ(warnings.size(), 1u) << raw;
    EXPECT_NE(warnings[0].find("BPSIO_CAPTURE_BUFFER_RECORDS"),
              std::string::npos)
        << warnings[0];
  }
  // The limit itself is a legal size and passes silently.
  const FakeEnv at_limit({
      {"BPSIO_CAPTURE_DIR", "/tmp/traces"},
      {"BPSIO_CAPTURE_BUFFER_RECORDS", "1048576"},
  });
  std::vector<std::string> warnings;
  const CaptureConfig config =
      parse_capture_config(at_limit.lookup(), &warnings);
  EXPECT_EQ(config.buffer_records, trace::kMaxFrameRecords);
  EXPECT_TRUE(warnings.empty());
}

TEST(CaptureConfig, AllowlistWinsOverDenylist) {
  const FakeEnv env({
      {"BPSIO_CAPTURE_DIR", "/tmp/traces"},
      {"BPSIO_CAPTURE_INCLUDE_FDS", "5,9"},
      {"BPSIO_CAPTURE_EXCLUDE_FDS", "5"},  // ignored: allowlist set
  });
  const CaptureConfig config = parse_capture_config(env.lookup());
  EXPECT_TRUE(fd_passes_filters(config, 5));
  EXPECT_TRUE(fd_passes_filters(config, 9));
  EXPECT_FALSE(fd_passes_filters(config, 7));
  EXPECT_FALSE(fd_passes_filters(config, 0));
}

TEST(CaptureConfig, DefaultFiltersExcludeStdio) {
  const FakeEnv env({{"BPSIO_CAPTURE_DIR", "/tmp/traces"}});
  const CaptureConfig config = parse_capture_config(env.lookup());
  EXPECT_FALSE(fd_passes_filters(config, 0));
  EXPECT_FALSE(fd_passes_filters(config, 1));
  EXPECT_FALSE(fd_passes_filters(config, 2));
  EXPECT_TRUE(fd_passes_filters(config, 3));
  EXPECT_TRUE(fd_passes_filters(config, 65535));
}

TEST(CaptureConfig, TracePathEncodesPidTidStamp) {
  CaptureConfig config;
  config.dir = "/tmp/traces";
  EXPECT_EQ(capture_trace_path(config, 42, 43, 1234567),
            "/tmp/traces/bpsio-42-43-1234567.bpstrace");
  config.dir = "/tmp/traces/";  // trailing slash not doubled
  EXPECT_EQ(capture_trace_path(config, 1, 1, 0),
            "/tmp/traces/bpsio-1-1-0.bpstrace");
}

TEST(CaptureConfig, RequestedBlocksRoundsUp) {
  // Section III.A: B counts requested blocks; a 1-byte write still moves
  // one block through the I/O system.
  CaptureConfig config;  // 512-byte blocks
  EXPECT_EQ(requested_blocks(config, 0), 0u);
  EXPECT_EQ(requested_blocks(config, 1), 1u);
  EXPECT_EQ(requested_blocks(config, 512), 1u);
  EXPECT_EQ(requested_blocks(config, 513), 2u);
  EXPECT_EQ(requested_blocks(config, 65536), 128u);
  config.block_size = 4096;
  EXPECT_EQ(requested_blocks(config, 65536), 16u);
  EXPECT_EQ(requested_blocks(config, 65537), 17u);
}

}  // namespace
}  // namespace bpsio::capture
