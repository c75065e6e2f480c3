// Ingest server tests that hold for both daemon presets: a relay chain
// (agent -> agent -> collector) whose every drain must stay start-ordered,
// and the one spool-failure rule. Everything runs in process, so the file
// runs under the sanitizers too.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agent/aggregator.hpp"
#include "collector/tenant_shards.hpp"
#include "common/wallclock.hpp"
#include "ingest/server.hpp"
#include "metrics/pipeline.hpp"
#include "socket_util.hpp"
#include "trace/frame.hpp"
#include "trace/mapped_source.hpp"
#include "trace/serialize.hpp"

namespace bpsio::ingest {
namespace {

using testutil::connect_unix;
using testutil::http_get;
using testutil::make_temp_dir;
using testutil::send_all;
using trace::IoRecord;
using trace::make_record;

constexpr Bytes kBlock = 512;
const SimDuration kWindow = SimDuration::from_seconds(10);

std::vector<IoRecord> sorted_by_start(std::vector<IoRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const IoRecord& a, const IoRecord& b) {
              return std::make_pair(a.start_ns, a.end_ns) <
                     std::make_pair(b.start_ns, b.end_ns);
            });
  return records;
}

/// The drain at `path` holds exactly `sent`, sorted, and the streaming
/// pipeline's order check (what bpsio_report runs) accepts it.
void expect_ordered_drain(const std::string& path,
                          const std::vector<IoRecord>& sent) {
  SCOPED_TRACE(path);
  const auto drained = trace::load_binary(path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  EXPECT_EQ(*drained, sorted_by_start(sent));
  const std::unique_ptr<trace::RecordSource> source =
      trace::open_trace_source(path);
  metrics::BlocksConsumer blocks;
  metrics::MetricPipeline pipeline;
  pipeline.attach(blocks);
  const Status ran = pipeline.run(*source);
  EXPECT_TRUE(ran.ok()) << ran.to_string();
  EXPECT_EQ(blocks.record_count(), sent.size());
}

/// A server running on its own thread until run() returns; stopped and
/// joined on destruction should a test bail out early.
struct Running {
  Running(ServerOptions options, Store& store)
      : server(with_stop(std::move(options), &stop), store) {}
  ~Running() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }

  static ServerOptions with_stop(ServerOptions options,
                                 const std::atomic<bool>* flag) {
    options.stop = flag;
    return options;
  }
  Status start() {
    const Status started = server.start();
    if (started.ok()) thread = std::thread([this] { status = server.run(); });
    return started;
  }
  Status join() {
    thread.join();
    return status;
  }

  std::atomic<bool> stop{false};
  Server server;
  Status status;
  std::thread thread;
};

TEST(IngestServer, RelayKeepsEveryDrainOrdered) {
  // capture -> leaf agent -> relay agent -> collector. The leaf forwards
  // its two capture connections as two streams over ONE upstream
  // connection, so the relay sees a multi-stream connection: its spools
  // and its forwarded streams must be per (connection, origin stream), or
  // the interleaved streams land in one spool out of order.
  const std::filesystem::path dir = make_temp_dir("relay_test");
  ASSERT_FALSE(dir.empty());

  ServerOptions copt;
  copt.socket_path = (dir / "collector.sock").string();
  copt.http_port = -1;
  copt.drain_path = (dir / "collector.bpstrace").string();
  copt.drain_tenant_dir = (dir / "tenants").string();
  copt.spool_dir = (dir / "collector.spool.d").string();
  copt.io_threads = 2;
  copt.expect_clients = 1;
  collector::TenantShards shards(4, kWindow, kBlock);
  Running collector(copt, shards);
  ASSERT_TRUE(collector.start().ok());

  ServerOptions ropt;
  ropt.socket_path = (dir / "relay.sock").string();
  ropt.http_port = -1;
  ropt.drain_path = (dir / "relay.bpstrace").string();
  ropt.spool_dir = (dir / "relay.spool.d").string();
  ropt.forward = agent::ForwardOptions{copt.socket_path, "beta", "", 4096};
  ropt.expect_clients = 1;
  agent::MetricAggregator relay_store(kWindow, kBlock);
  Running relay(ropt, relay_store);
  ASSERT_TRUE(relay.start().ok());

  ServerOptions lopt;
  lopt.socket_path = (dir / "leaf.sock").string();
  lopt.http_port = -1;
  lopt.drain_path = (dir / "leaf.bpstrace").string();
  lopt.spool_dir = (dir / "leaf.spool.d").string();
  lopt.forward = agent::ForwardOptions{ropt.socket_path, "default", "", 4096};
  lopt.expect_clients = 2;
  agent::MetricAggregator leaf_store(kWindow, kBlock);
  Running leaf(lopt, leaf_store);
  ASSERT_TRUE(leaf.start().ok());

  // Two capture threads with interleaved start times: pid 1 at 0, 20, 40
  // and pid 2 at 10, 30, 50, each shipped as one frame.
  std::vector<IoRecord> sent;
  std::vector<int> clients;
  for (std::uint32_t pid = 1; pid <= 2; ++pid) {
    std::vector<IoRecord> records;
    for (std::int64_t i = 0; i < 3; ++i) {
      const std::int64_t start = (pid - 1) * 10 + i * 20;
      records.push_back(
          make_record(pid, 8, SimTime(start), SimTime(start + 5)));
    }
    std::vector<char> wire;
    trace::encode_frame(records, wire);
    const int fd = connect_unix(lopt.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, wire));
    clients.push_back(fd);
    sent.insert(sent.end(), records.begin(), records.end());
  }
  for (const int fd : clients) ::close(fd);

  const Status leaf_status = leaf.join();
  ASSERT_TRUE(leaf_status.ok()) << leaf_status.to_string();
  const Status relay_status = relay.join();
  ASSERT_TRUE(relay_status.ok()) << relay_status.to_string();
  const Status collector_status = collector.join();
  ASSERT_TRUE(collector_status.ok()) << collector_status.to_string();

  EXPECT_EQ(leaf_store.records_total(), sent.size());
  EXPECT_EQ(relay_store.records_total(), sent.size());
  EXPECT_EQ(shards.records_total(), sent.size());
  EXPECT_EQ(relay.server.transport().forward.records_forwarded, sent.size());
  // Every hop keeps one stream per origin: two into the relay's spools,
  // two forwarded to the collector's.
  EXPECT_EQ(relay.server.transport().streams_total, 2u);
  EXPECT_EQ(collector.server.transport().streams_total, 2u);

  expect_ordered_drain(lopt.drain_path, sent);
  expect_ordered_drain(ropt.drain_path, sent);
  expect_ordered_drain(copt.drain_path, sent);
  expect_ordered_drain((dir / "tenants" / "tenant-beta.bpstrace").string(),
                       sent);

  std::filesystem::remove_all(dir);
}

TEST(IngestServer, DrainsMoreSpoolsThanTheSoftDescriptorLimit) {
  // A daemon keeps a spool for every (connection, stream) it served, and
  // its drain reads them all at once, one descriptor each: 96 spools must
  // drain, into the trace and the tenant file, under a soft limit of 48
  // descriptors.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  if (saved.rlim_max < 256) GTEST_SKIP() << "hard descriptor limit below 256";
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};
  const std::filesystem::path dir = make_temp_dir("many_spools_test");
  ASSERT_FALSE(dir.empty());
  constexpr std::uint64_t kSpools = 96;
  ServerOptions options;
  options.socket_path = (dir / "ingest.sock").string();
  options.http_port = -1;
  options.drain_path = (dir / "drain.bpstrace").string();
  options.drain_tenant_dir = (dir / "tenants").string();
  options.spool_dir = (dir / "spool.d").string();
  options.expect_clients = kSpools;
  agent::MetricAggregator aggregator(kWindow, kBlock);
  Running running(options, aggregator);
  ASSERT_TRUE(running.start().ok());
  rlimit low = saved;
  low.rlim_cur = 48;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  std::vector<IoRecord> sent;
  for (std::uint64_t c = 0; c < kSpools; ++c) {
    const auto start = static_cast<std::int64_t>(c) * 1000;
    const std::vector<IoRecord> one{make_record(
        static_cast<std::uint32_t>(c + 1), 4, SimTime(start),
        SimTime(start + 1500))};
    std::vector<char> wire;
    trace::encode_frame(one, wire);
    const int client = connect_unix(options.socket_path);
    ASSERT_GE(client, 0) << "client " << c;
    ASSERT_TRUE(send_all(client, wire));
    ::close(client);
    sent.push_back(one.front());
    // One connection at a time, so that the run itself needs few
    // descriptors: the drain is what must pass the limit.
    for (Transport t = running.server.transport();
         t.connected_total <= c || t.active != 0;
         t = running.server.transport()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const Status ran = running.join();
  ASSERT_TRUE(ran.ok()) << ran.to_string();
  EXPECT_EQ(running.server.transport().streams_total, kSpools);
  expect_ordered_drain(options.drain_path, sent);
  expect_ordered_drain((dir / "tenants" / "tenant-default.bpstrace").string(),
                       sent);
  std::filesystem::remove_all(dir);
}

TEST(IngestServer, ForwardingNeedsAnInlineServer) {
  // ForwardLink and the upstream stream ids belong to one thread, so a
  // server with workers refuses to forward instead of racing on them.
  const std::filesystem::path dir = make_temp_dir("forward_workers_test");
  ASSERT_FALSE(dir.empty());
  ServerOptions options;
  options.socket_path = (dir / "ingest.sock").string();
  options.http_port = -1;
  options.io_threads = 2;
  options.forward =
      agent::ForwardOptions{(dir / "upstream.sock").string(), "t", "", 16};
  collector::TenantShards shards(2, kWindow, kBlock);
  Server server(options, shards);
  const Status started = server.start();
  EXPECT_EQ(started.code(), Errc::invalid_argument) << started.to_string();
  std::filesystem::remove_all(dir);
}

void ignore_signal(int) {}

TEST(IngestServer, ShutdownWakesIdleWorkersAtOnce) {
  // The collector preset with two I/O workers idle in poll(): once the
  // stop flag is up and a signal interrupts the poll thread's round, as
  // SIGTERM does for the daemon, run() must return within a few ms rather
  // than wait out the workers' poll interval. The signal is re-sent every
  // ms in case one lands between rounds.
  struct sigaction wake {};
  wake.sa_handler = ignore_signal;
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGUSR1, &wake, &saved), 0);
  const std::filesystem::path dir = make_temp_dir("idle_workers_test");
  ASSERT_FALSE(dir.empty());
  for (int attempt = 0; attempt < 10; ++attempt) {
    ServerOptions options;
    options.socket_path = (dir / "ingest.sock").string();
    options.http_port = -1;
    options.io_threads = 2;
    collector::TenantShards shards(2, kWindow, kBlock);
    Running running(options, shards);
    ASSERT_TRUE(running.server.start().ok());
    std::atomic<bool> returned{false};
    running.thread = std::thread([&] {
      running.status = running.server.run();
      returned.store(true);
    });
    // Let the workers settle into their poll rounds.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto stop_at = std::chrono::steady_clock::now();
    running.stop.store(true);
    while (!returned.load()) {
      ::pthread_kill(running.thread.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto waited = std::chrono::steady_clock::now() - stop_at;
    EXPECT_TRUE(running.join().ok());
    EXPECT_LT(waited, std::chrono::milliseconds(20))
        << "attempt " << attempt << ": run() took "
        << std::chrono::duration_cast<std::chrono::microseconds>(waited)
               .count()
        << " us to stop";
  }
  ::sigaction(SIGUSR1, &saved, nullptr);
  std::filesystem::remove_all(dir);
}

/// The collector's store, noting when each frame reaches it.
class StampingShards final : public collector::TenantShards {
 public:
  using TenantShards::TenantShards;
  void ingest(Slot* slot, std::span<const IoRecord> records) override {
    TenantShards::ingest(slot, records);
    frames.fetch_add(1);
  }
  std::atomic<std::uint64_t> frames{0};
};

TEST(IngestServer, AWorkerServesAFreshConnectionAtOnce) {
  // The collector preset with two I/O workers idle in poll(): a new
  // connection's first frame must reach the store within a few ms, not
  // wait out the adopting worker's poll interval (50 ms).
  const std::filesystem::path dir = make_temp_dir("fresh_conn_test");
  ASSERT_FALSE(dir.empty());
  ServerOptions options;
  options.socket_path = (dir / "ingest.sock").string();
  options.http_port = -1;
  options.io_threads = 2;
  StampingShards shards(2, kWindow, kBlock);
  Running running(options, shards);
  ASSERT_TRUE(running.start().ok());
  const std::vector<IoRecord> one{
      make_record(7, 4, SimTime(1000), SimTime(1500))};
  std::vector<char> wire;
  trace::encode_frame(one, wire);
  for (int attempt = 0; attempt < 10; ++attempt) {
    // Let the workers settle into their poll rounds.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::uint64_t before = shards.frames.load();
    const auto sent_at = std::chrono::steady_clock::now();
    const int client = connect_unix(options.socket_path);
    ASSERT_GE(client, 0);
    ASSERT_TRUE(send_all(client, wire));
    while (shards.frames.load() == before &&
           std::chrono::steady_clock::now() - sent_at <
               std::chrono::seconds(5)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto waited = std::chrono::steady_clock::now() - sent_at;
    EXPECT_LT(waited, std::chrono::milliseconds(10))
        << "attempt " << attempt << ": the frame took "
        << std::chrono::duration_cast<std::chrono::microseconds>(waited)
               .count()
        << " us to reach the store";
    ::close(client);
  }
  running.stop.store(true);
  EXPECT_TRUE(running.join().ok());
  std::filesystem::remove_all(dir);
}

TEST(IngestServer, RunReturnsAtOnceAfterTheLastExpectedClose) {
  // The collector preset with two I/O workers and expect_clients: once a
  // worker closes the last expected connection, run() must return within
  // a few ms, not at the end of the poll thread's round (50 ms).
  const std::filesystem::path dir = make_temp_dir("last_close_test");
  ASSERT_FALSE(dir.empty());
  const std::vector<IoRecord> one{
      make_record(7, 4, SimTime(1000), SimTime(1500))};
  std::vector<char> wire;
  trace::encode_frame(one, wire);
  for (int attempt = 0; attempt < 10; ++attempt) {
    ServerOptions options;
    options.socket_path = (dir / "ingest.sock").string();
    options.http_port = -1;
    options.io_threads = 2;
    options.expect_clients = 1;
    StampingShards shards(2, kWindow, kBlock);
    Running running(options, shards);
    ASSERT_TRUE(running.server.start().ok());
    std::atomic<bool> returned{false};
    running.thread = std::thread([&] {
      running.status = running.server.run();
      returned.store(true);
    });
    const int client = connect_unix(options.socket_path);
    ASSERT_GE(client, 0);
    ASSERT_TRUE(send_all(client, wire));
    while (shards.frames.load() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    // Let the poll thread settle into its round.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto closed_at = std::chrono::steady_clock::now();
    ::close(client);
    while (!returned.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto waited = std::chrono::steady_clock::now() - closed_at;
    EXPECT_TRUE(running.join().ok());
    EXPECT_LT(waited, std::chrono::milliseconds(10))
        << "attempt " << attempt << ": run() took "
        << std::chrono::duration_cast<std::chrono::microseconds>(waited)
               .count()
        << " us to return";
  }
  std::filesystem::remove_all(dir);
}

TEST(IngestServer, RecordOutsideTheTimeRuleDropsOnlyItsConnection) {
  // The agent preset. Unchecked, one record starting at INT64_MIN
  // overflowed the window's response-time sum, and /metrics showed a
  // negative ARPT for every pid.
  const std::filesystem::path dir = make_temp_dir("time_rule_test");
  ASSERT_FALSE(dir.empty());
  ServerOptions options;
  options.socket_path = (dir / "ingest.sock").string();
  options.http_port = 0;
  options.expect_clients = 2;
  agent::MetricAggregator aggregator(kWindow, kBlock);
  Running running(options, aggregator);
  ASSERT_TRUE(running.start().ok());

  const int good = connect_unix(options.socket_path);
  ASSERT_GE(good, 0);
  // Times near now, so the window still holds the records when scraped.
  const std::int64_t now = monotonic_ns();
  const std::vector<IoRecord> two{
      make_record(7, 4, SimTime(now - 1'000'000), SimTime(now - 500'000)),
      make_record(7, 4, SimTime(now - 400'000), SimTime(now - 100'000))};
  std::vector<char> wire;
  trace::encode_frame(two, wire);
  ASSERT_TRUE(send_all(good, wire));

  const int wild = connect_unix(options.socket_path);
  ASSERT_GE(wild, 0);
  const std::vector<IoRecord> wild_record{
      make_record(8, 4, SimTime(std::numeric_limits<std::int64_t>::min()),
                  SimTime(now))};
  wire.clear();
  trace::encode_frame(wild_record, wire);
  ASSERT_TRUE(send_all(wild, wire));
  // The server drops the wild connection: its client reads EOF.
  const timeval limit{10, 0};
  ASSERT_EQ(::setsockopt(wild, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit),
            0);
  char byte = 0;
  EXPECT_EQ(::read(wild, &byte, 1), 0);
  ::close(wild);

  std::string metrics;
  for (int attempt = 0; attempt < 250; ++attempt) {
    metrics = http_get(running.server.http_port(), "/metrics");
    if (metrics.find("bpsio_records_total 2\n") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(metrics.find("bpsio_records_total 2\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("bpsio_bad_frames_total 1\n"), std::string::npos)
      << metrics;
  // (500 + 300) / 2 us.
  EXPECT_NE(metrics.find("bpsio_window_arpt_seconds{pid=\"all\"} "
                         "0.000400000\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("pid=\"8\""), std::string::npos) << metrics;

  ::close(good);
  EXPECT_TRUE(running.join().ok());
  std::filesystem::remove_all(dir);
}

/// One preset of the spool-failure rule: the store and its threading.
struct SpoolFailureCase {
  const char* name;
  std::size_t io_threads;
  const char* records_series;  ///< the fleet/global records_total series
};

class SpoolFailure : public ::testing::TestWithParam<SpoolFailureCase> {};

TEST_P(SpoolFailure, DropsTheConnectionKeepsMetricsAndFailsTheRun) {
  // A spool that cannot be opened drops its connection; /metrics keeps
  // serving, with the dropped client's frame counted; run() refuses to
  // write a drain that would miss the frame. Replacing the spool directory
  // with a regular file makes the open fail even as root, where a chmod
  // would not.
  const SpoolFailureCase& param = GetParam();
  const std::filesystem::path dir = make_temp_dir("spool_failure_test");
  ASSERT_FALSE(dir.empty());

  ServerOptions options;
  options.socket_path = (dir / "ingest.sock").string();
  options.http_port = 0;
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.io_threads = param.io_threads;
  options.expect_clients = 2;
  agent::MetricAggregator aggregator(kWindow, kBlock);
  collector::TenantShards shards(2, kWindow, kBlock);
  Store& store = param.io_threads == 0 ? static_cast<Store&>(aggregator)
                                       : static_cast<Store&>(shards);
  Running running(options, store);
  ASSERT_TRUE(running.server.start().ok());
  ASSERT_TRUE(std::filesystem::remove(options.spool_dir));
  std::ofstream(options.spool_dir) << "not a directory\n";
  running.thread = std::thread(
      [&running] { running.status = running.server.run(); });

  // An idle client keeps the server running past the dropped one.
  const int idle = connect_unix(options.socket_path);
  ASSERT_GE(idle, 0);
  const int client = connect_unix(options.socket_path);
  ASSERT_GE(client, 0);
  std::vector<IoRecord> records;
  for (std::int64_t i = 0; i < 3; ++i) {
    records.push_back(make_record(7, 4, SimTime(i * 1000),
                                  SimTime(i * 1000 + 500)));
  }
  std::vector<char> wire;
  trace::encode_frame(records, wire);
  ASSERT_TRUE(send_all(client, wire));

  // The server closes the failed connection: the client reads EOF.
  const timeval limit{10, 0};
  ASSERT_EQ(::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit),
            0);
  char byte = 0;
  EXPECT_EQ(::read(client, &byte, 1), 0);
  ::close(client);

  const std::string want = std::string(param.records_series) + " 3\n";
  std::string metrics;
  for (int attempt = 0; attempt < 250; ++attempt) {
    metrics = http_get(running.server.http_port(), "/metrics");
    if (metrics.find(want) != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(metrics.find(want), std::string::npos) << metrics;

  ::close(idle);
  const Status ran = running.join();
  EXPECT_FALSE(ran.ok());
  EXPECT_NE(ran.to_string().find("spool failure"), std::string::npos)
      << ran.to_string();
  EXPECT_FALSE(std::filesystem::exists(options.drain_path));
  const Transport transport = running.server.transport();
  EXPECT_EQ(transport.connected_total, 2u);
  EXPECT_EQ(transport.active, 0u);
  EXPECT_EQ(transport.frames_total, 1u);

  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    BothPresets, SpoolFailure,
    ::testing::Values(
        SpoolFailureCase{"agent", 0, "bpsio_records_total"},
        SpoolFailureCase{"collector", 2,
                         "bpsio_records_total{tenant=\"all\"}"}),
    [](const ::testing::TestParamInfo<SpoolFailureCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace bpsio::ingest
