// End-to-end proof of the live agent path (ISSUE acceptance): records that
// travel capture client -> Unix socket -> bpsio_agentd -> drain file must be
// THE SAME records a direct file spill would have written — bit-identical B
// and T through bpsio_report — and a client that finds no daemon listening
// must fall back to file spill without losing a record.
//
// Binaries are injected by CMake through the test ENVIRONMENT
// (BPSIO_CAPTURE_LIB, BPSIO_CAPTURE_SMOKE, BPSIO_REPORT_BIN,
// BPSIO_AGENTD_BIN); absent any of them the tests skip rather than fail.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "socket_util.hpp"
#include "trace/frame.hpp"
#include "trace/serialize.hpp"

namespace bpsio {
namespace {

using testutil::connect_unix;
using testutil::make_temp_dir;
using testutil::send_all;

constexpr int kProcs = 4;
constexpr int kWrites = 200;
constexpr int kBytes = 65536;  // 128 blocks at 512 B/block
constexpr std::uint64_t kExpectedRecords = kProcs * kWrites;
constexpr std::uint64_t kExpectedBlocks = kProcs * kWrites * (kBytes / 512);

struct Paths {
  std::string lib;
  std::string smoke;
  std::string report;
  std::string agentd;
};

std::optional<Paths> binaries() {
  const char* lib = std::getenv("BPSIO_CAPTURE_LIB");
  const char* smoke = std::getenv("BPSIO_CAPTURE_SMOKE");
  const char* report = std::getenv("BPSIO_REPORT_BIN");
  const char* agentd = std::getenv("BPSIO_AGENTD_BIN");
  if (lib == nullptr || smoke == nullptr || report == nullptr ||
      agentd == nullptr) {
    return std::nullopt;
  }
  return Paths{lib, smoke, report, agentd};
}

std::vector<std::string> trace_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".bpstrace") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string run_and_read(const std::string& command, int* exit_code) {
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[512];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr) {
    out += buf;
  }
  *exit_code = pipe != nullptr ? ::pclose(pipe) : -1;
  return out;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= line.size()) {
    const std::size_t next = std::min(line.find(sep, at), line.size());
    out.push_back(line.substr(at, next - at));
    at = next + 1;
  }
  return out;
}

/// bpsio_report --csv over `target`; returns the data row split on commas.
std::vector<std::string> report_row(const std::string& report_bin,
                                    const std::string& target) {
  int exit_code = 0;
  const std::string csv =
      run_and_read("'" + report_bin + "' '" + target + "' --csv", &exit_code);
  EXPECT_EQ(exit_code, 0) << csv;
  const std::vector<std::string> lines = split(csv, '\n');
  EXPECT_GE(lines.size(), 2u) << csv;
  return lines.size() >= 2 ? split(lines[1], ',') : std::vector<std::string>{};
}

/// Start the daemon in the background (popen keeps the pipe open until it
/// exits) and wait for its listening socket to appear.
FILE* start_agentd(const std::string& command, const std::string& socket_path) {
  FILE* daemon = ::popen(command.c_str(), "r");
  EXPECT_NE(daemon, nullptr);
  struct stat st{};
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (::stat(socket_path.c_str(), &st) == 0) return daemon;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "daemon never bound " << socket_path;
  return daemon;
}

/// Read whatever the daemon printed and reap it; returns its exit code.
int finish_agentd(FILE* daemon, std::string* output) {
  char buf[512];
  while (daemon != nullptr && std::fgets(buf, sizeof buf, daemon) != nullptr) {
    *output += buf;
  }
  return daemon != nullptr ? ::pclose(daemon) : -1;
}

TEST(AgentE2E, DrainIsBitIdenticalToDirectSpill) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "agent binaries not in environment";

  // Ground truth: one real capture run through the file-spill path.
  const std::string spill_dir = make_temp_dir("spill");
  const std::string data_dir = make_temp_dir("data");
  const std::string capture =
      "BPSIO_CAPTURE_DIR='" + spill_dir + "' LD_PRELOAD='" + paths->lib +
      "' '" + paths->smoke + "' '" + data_dir + "' " + std::to_string(kProcs) +
      " " + std::to_string(kWrites) + " " + std::to_string(kBytes);
  ASSERT_EQ(std::system(capture.c_str()), 0);
  const std::vector<std::string> files = trace_files(spill_dir);
  ASSERT_EQ(files.size(), static_cast<std::size_t>(kProcs));

  // Replay the SAME records over the live path: one connection per spill
  // file (a connection is one thread's start-ordered stream — exactly what
  // each per-process spill file is), framed in small batches.
  const std::string agent_dir = make_temp_dir("agent");
  const std::string socket_path = agent_dir + "/agent.sock";
  const std::string drain_path = agent_dir + "/drain.bpstrace";
  const std::string daemon_cmd =
      "'" + paths->agentd + "' --socket='" + socket_path + "' --http-port=-1" +
      " --drain='" + drain_path + "' --expect-clients=" +
      std::to_string(kProcs) + " 2>&1";
  FILE* daemon = start_agentd(daemon_cmd, socket_path);

  for (const std::string& file : files) {
    auto records = trace::load_binary(file);
    ASSERT_TRUE(records.ok()) << records.error().to_string();
    const int fd = connect_unix(socket_path);
    ASSERT_GE(fd, 0) << "connect to " << socket_path;
    const std::span<const trace::IoRecord> all(*records);
    std::vector<char> wire;
    for (std::size_t at = 0; at < all.size(); at += 64) {
      wire.clear();
      trace::encode_frame(all.subspan(at, std::min<std::size_t>(64, all.size() - at)),
                          wire);
      ASSERT_TRUE(send_all(fd, wire));
    }
    ::close(fd);
  }

  std::string daemon_log;
  const int daemon_rc = finish_agentd(daemon, &daemon_log);
  ASSERT_EQ(daemon_rc, 0) << daemon_log;

  // The drained trace and the spill directory hold the same record multiset,
  // so every report column except the file count must match bit for bit —
  // B, T_s, bps, iops, bw, arpt, span, peak are all integer-accumulated or
  // deterministic functions of the records.
  const std::vector<std::string> from_spill =
      report_row(paths->report, spill_dir);
  const std::vector<std::string> from_drain =
      report_row(paths->report, drain_path);
  ASSERT_EQ(from_spill.size(), from_drain.size());
  ASSERT_GE(from_spill.size(), 6u);
  EXPECT_EQ(from_drain[0], "1");  // one merged drain file
  for (std::size_t col = 1; col < from_spill.size(); ++col) {
    EXPECT_EQ(from_spill[col], from_drain[col]) << "column " << col;
  }
  EXPECT_EQ(from_drain[1], std::to_string(kExpectedRecords));
  EXPECT_EQ(from_drain[4], std::to_string(kExpectedBlocks));

  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(agent_dir);
}

TEST(AgentE2E, PreloadShipsOverSocketWithoutSpilling) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "agent binaries not in environment";

  const std::string agent_dir = make_temp_dir("live");
  const std::string spill_dir = make_temp_dir("fallback");
  const std::string data_dir = make_temp_dir("data");
  const std::string socket_path = agent_dir + "/agent.sock";
  const std::string drain_path = agent_dir + "/drain.bpstrace";
  const std::string daemon_cmd =
      "'" + paths->agentd + "' --socket='" + socket_path + "' --http-port=-1" +
      " --drain='" + drain_path + "' --expect-clients=" +
      std::to_string(kProcs) + " 2>&1";
  FILE* daemon = start_agentd(daemon_cmd, socket_path);

  // The real client: LD_PRELOAD capture with a reachable daemon. The spill
  // dir is configured too — the fallback target — and must stay empty.
  const std::string capture =
      "BPSIO_CAPTURE_SOCKET='" + socket_path + "' BPSIO_CAPTURE_DIR='" +
      spill_dir + "' LD_PRELOAD='" + paths->lib + "' '" + paths->smoke +
      "' '" + data_dir + "' " + std::to_string(kProcs) + " " +
      std::to_string(kWrites) + " " + std::to_string(kBytes);
  ASSERT_EQ(std::system(capture.c_str()), 0);

  std::string daemon_log;
  const int daemon_rc = finish_agentd(daemon, &daemon_log);
  ASSERT_EQ(daemon_rc, 0) << daemon_log;

  // Everything went over the socket: no spill files, full count in drain.
  EXPECT_TRUE(trace_files(spill_dir).empty());
  const std::vector<std::string> row = report_row(paths->report, drain_path);
  ASSERT_GE(row.size(), 6u);
  EXPECT_EQ(row[1], std::to_string(kExpectedRecords));  // records
  EXPECT_EQ(row[2], std::to_string(kProcs));            // processes
  EXPECT_EQ(row[4], std::to_string(kExpectedBlocks));   // B

  std::filesystem::remove_all(agent_dir);
  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(data_dir);
}

TEST(AgentE2E, MidRunThreadExitAndForkFlushesOverSocket) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "agent binaries not in environment";

  // The socket twin of CaptureE2E.MidRunThreadExitAndForkFlushes: a
  // 7-record buffer ships frames mid-run at uneven boundaries, three
  // threads per child each open their own connection and ship their tail
  // at thread exit, and the parent's pre-fork records go out from the
  // atfork prepare handler — every call reaches the agent exactly once,
  // and nothing falls back to spill.
  constexpr int kChildren = 2;
  constexpr int kThreads = 3;
  constexpr int kChildWrites = 23;
  constexpr int kParentWrites = 10;
  constexpr int kConnections = kChildren * kThreads + 1;
  const std::string agent_dir = make_temp_dir("flush_live");
  const std::string spill_dir = make_temp_dir("flush_fallback");
  const std::string data_dir = make_temp_dir("flush_data");
  const std::string socket_path = agent_dir + "/agent.sock";
  const std::string drain_path = agent_dir + "/drain.bpstrace";
  FILE* daemon = start_agentd("'" + paths->agentd + "' --socket='" +
                                  socket_path + "' --http-port=-1" +
                                  " --drain='" + drain_path +
                                  "' --expect-clients=" +
                                  std::to_string(kConnections) + " 2>&1",
                              socket_path);

  int exit_code = 0;
  const std::string out = run_and_read(
      "BPSIO_CAPTURE_BUFFER_RECORDS=7 BPSIO_CAPTURE_SOCKET='" + socket_path +
          "' BPSIO_CAPTURE_DIR='" + spill_dir + "' LD_PRELOAD='" +
          paths->lib + "' '" + paths->smoke + "' '" + data_dir + "' " +
          std::to_string(kChildren) + " " + std::to_string(kChildWrites) +
          " 4096 --threads=" + std::to_string(kThreads) +
          " --parent-writes=" + std::to_string(kParentWrites),
      &exit_code);
  ASSERT_EQ(exit_code, 0) << out;
  std::uint32_t parent_pid = 0;
  ASSERT_EQ(std::sscanf(out.c_str(), "parent-pid %u", &parent_pid), 1) << out;

  std::string daemon_log;
  const int daemon_rc = finish_agentd(daemon, &daemon_log);
  ASSERT_EQ(daemon_rc, 0) << daemon_log;

  EXPECT_TRUE(trace_files(spill_dir).empty());
  auto drained = trace::load_binary(drain_path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  std::map<std::uint32_t, std::uint64_t> records_by_pid;
  std::uint64_t blocks = 0;
  for (const trace::IoRecord& r : *drained) {
    ++records_by_pid[r.pid];
    blocks += r.blocks;
  }
  const std::uint64_t calls = kChildren * kThreads * kChildWrites + kParentWrites;
  EXPECT_EQ(drained->size(), calls);
  EXPECT_EQ(blocks, calls * (4096 / 512));
  ASSERT_EQ(records_by_pid.size(), static_cast<std::size_t>(kChildren + 1));
  for (const auto& [pid, count] : records_by_pid) {
    EXPECT_EQ(count, pid == parent_pid
                         ? static_cast<std::uint64_t>(kParentWrites)
                         : static_cast<std::uint64_t>(kThreads * kChildWrites))
        << "pid " << pid;
  }

  std::filesystem::remove_all(agent_dir);
  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(data_dir);
}

TEST(AgentE2E, FallsBackToSpillWhenNoDaemonListens) {
  const auto paths = binaries();
  if (!paths) GTEST_SKIP() << "agent binaries not in environment";

  const std::string spill_dir = make_temp_dir("fallback");
  const std::string data_dir = make_temp_dir("data");
  // Socket path nobody listens on: the client must not fail, must not hang,
  // and must deliver every record through the spill path instead.
  const std::string capture =
      "BPSIO_CAPTURE_SOCKET='" + spill_dir + "/no-daemon.sock'" +
      " BPSIO_CAPTURE_DIR='" + spill_dir + "' LD_PRELOAD='" + paths->lib +
      "' '" + paths->smoke + "' '" + data_dir + "' " + std::to_string(kProcs) +
      " " + std::to_string(kWrites) + " " + std::to_string(kBytes);
  ASSERT_EQ(std::system(capture.c_str()), 0);

  const std::vector<std::string> files = trace_files(spill_dir);
  ASSERT_EQ(files.size(), static_cast<std::size_t>(kProcs));
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  for (const std::string& file : files) {
    auto loaded = trace::load_binary(file);
    ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
    records += loaded->size();
    for (const trace::IoRecord& r : *loaded) blocks += r.blocks;
  }
  EXPECT_EQ(records, kExpectedRecords);
  EXPECT_EQ(blocks, kExpectedBlocks);

  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace bpsio
