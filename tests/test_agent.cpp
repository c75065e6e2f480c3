// Agent subsystem tests: MetricAggregator accounting and exposition, plus
// the bpsio_agentd preset of the ingest server in process — an inline
// server over a MetricAggregator (Unix socket frames in, /metrics HTTP out,
// drain file on shutdown). The multi-process path — LD_PRELOAD clients
// shipping to a real daemon binary — lives in test_agent_e2e.cpp; this file
// exercises the same machinery without fork/exec so it runs everywhere,
// sanitizers included.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "agent/aggregator.hpp"
#include "common/rng.hpp"
#include "ingest/server.hpp"
#include "socket_util.hpp"
#include "trace/frame.hpp"
#include "trace/serialize.hpp"

namespace bpsio::agent {
namespace {

using testutil::connect_unix;
using testutil::http_get;
using testutil::make_temp_dir;
using testutil::send_all;
using trace::IoRecord;
using trace::make_record;

constexpr Bytes kBlock = 512;

MetricAggregator make_aggregator() {
  return MetricAggregator(SimDuration::from_ms(100), kBlock);
}

TEST(Aggregator, LifetimeTotalsAndFlagCounters) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(1, 8, SimTime(0), SimTime(1000)));
  agg.add(make_record(1, 4, SimTime(2000), SimTime(3000), trace::IoOpKind::write,
                      trace::kIoFailed));
  agg.add(make_record(2, 0, SimTime(3000), SimTime(4000), trace::IoOpKind::write,
                      trace::kIoSync));

  IoRecord bad = make_record(2, 16, SimTime(9000), SimTime(8000));
  ASSERT_FALSE(bad.valid());
  agg.add(bad);

  EXPECT_EQ(agg.records_total(), 3u);
  EXPECT_EQ(agg.blocks_total(), 12u);  // failed accesses count toward B
  EXPECT_EQ(agg.failed_total(), 1u);
  EXPECT_EQ(agg.sync_total(), 1u);
  EXPECT_EQ(agg.invalid_total(), 1u);  // counted, not ingested
  EXPECT_EQ(agg.pids_seen(), 2u);
  EXPECT_EQ(agg.global().accesses(), 3u);
}

TEST(Aggregator, PerPidWindowsPartitionTheGlobalStream) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(10, 8, SimTime(0), SimTime(1000)));
  agg.add(make_record(10, 8, SimTime(1000), SimTime(2000)));
  agg.add(make_record(20, 4, SimTime(500), SimTime(1500)));

  EXPECT_EQ(agg.pids_seen(), 2u);
  EXPECT_EQ(agg.global().blocks(), 20u);
  // Per-pid figures show up in the snapshot with their own labels.
  const std::string csv = agg.csv_snapshot();
  EXPECT_NE(csv.find("\nall,3,20,"), std::string::npos);
  EXPECT_NE(csv.find("\n10,2,16,"), std::string::npos);
  EXPECT_NE(csv.find("\n20,1,4,"), std::string::npos);
}

TEST(Aggregator, AdvanceExpiresWindowsButKeepsTotals) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(1, 8, SimTime(0), SimTime(1000)));
  agg.advance_windows(SimTime::from_seconds(10));
  EXPECT_EQ(agg.global().accesses(), 0u);
  EXPECT_EQ(agg.global().io_time().ns(), 0);
  EXPECT_EQ(agg.records_total(), 1u);
  EXPECT_EQ(agg.blocks_total(), 8u);
}

TEST(Aggregator, PrometheusTextCarriesCountersAndLabels) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(7, 8, SimTime(0), SimTime(1000)));
  agg.add(make_record(7, 8, SimTime(1000), SimTime(2000)));

  TransportStats transport;
  transport.connected_total = 3;
  transport.active = 1;
  transport.frames_total = 5;
  const std::string text = agg.prometheus_text(transport);

  EXPECT_NE(text.find("bpsio_records_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_blocks_total 16\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_clients_connected_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_clients_active 1\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_frames_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_pids_seen 1\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_block_size_bytes 512\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_window_records{pid=\"all\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bpsio_window_blocks{pid=\"7\"} 16\n"),
            std::string::npos);
  // Every metric family is documented for scrapers.
  EXPECT_NE(text.find("# HELP bpsio_window_bps "), std::string::npos);
  EXPECT_NE(text.find("# TYPE bpsio_records_total counter\n"),
            std::string::npos);
}

TEST(Aggregator, CsvSnapshotHasHeaderAndOneRowPerPid) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(3, 8, SimTime(0), SimTime(1000)));
  const std::string csv = agg.csv_snapshot();
  EXPECT_EQ(csv.rfind("pid,window_records,window_blocks,window_io_s,"
                      "window_bps,window_iops,window_bw_Bps,window_arpt_s\n",
                      0),
            0u);
  // header + "all" + pid 3
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
}

TEST(Aggregator, SpanBatchMatchesPerRecordIngest) {
  // The daemon now feeds whole decoded frames through add(span); that path
  // must land on exactly the state the historical per-record loop produced —
  // counters, per-pid windows, and both exposition formats.
  Rng rng(99);
  std::vector<IoRecord> records;
  std::int64_t t = 0;
  for (int i = 0; i < 240; ++i) {
    t += static_cast<std::int64_t>(rng.uniform_u64(3000));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(4000)) + 1;
    const auto pid = static_cast<std::uint32_t>(rng.uniform_u64(5) + 1);
    std::uint8_t flags = trace::kIoOk;
    if (rng.uniform_u64(8) == 0) flags = trace::kIoFailed;
    if (rng.uniform_u64(8) == 1) flags = trace::kIoSync;
    IoRecord r = make_record(pid, rng.uniform_u64(32) + 1, SimTime(t),
                             SimTime(t + len), trace::IoOpKind::read, flags);
    if (rng.uniform_u64(12) == 0) std::swap(r.start_ns, r.end_ns);  // invalid
    records.push_back(r);
  }

  MetricAggregator scalar = make_aggregator();
  for (const IoRecord& r : records) scalar.add(r);

  MetricAggregator batched = make_aggregator();
  std::span<const IoRecord> rest(records);
  Rng slicer(7);
  while (!rest.empty()) {
    const std::size_t take =
        std::min<std::size_t>(slicer.uniform_u64(31) + 1, rest.size());
    batched.add(rest.subspan(0, take));
    rest = rest.subspan(take);
  }

  EXPECT_EQ(batched.records_total(), scalar.records_total());
  EXPECT_EQ(batched.blocks_total(), scalar.blocks_total());
  EXPECT_EQ(batched.failed_total(), scalar.failed_total());
  EXPECT_EQ(batched.sync_total(), scalar.sync_total());
  EXPECT_EQ(batched.invalid_total(), scalar.invalid_total());
  EXPECT_EQ(batched.pids_seen(), scalar.pids_seen());
  EXPECT_EQ(batched.csv_snapshot(), scalar.csv_snapshot());
  const TransportStats transport;
  EXPECT_EQ(batched.prometheus_text(transport),
            scalar.prometheus_text(transport));
}

TEST(Aggregator, AllInvalidSpanCountsButCreatesNoWindows) {
  // A frame of nothing but invalid records must be counted and otherwise
  // ignored — in particular it must not conjure per-pid windows the
  // per-record path never created.
  MetricAggregator agg = make_aggregator();
  std::vector<IoRecord> bad;
  for (int i = 0; i < 4; ++i) {
    bad.push_back(make_record(42, 8, SimTime(5000), SimTime(1000)));
  }
  agg.add(std::span<const IoRecord>(bad));
  EXPECT_EQ(agg.invalid_total(), 4u);
  EXPECT_EQ(agg.records_total(), 0u);
  EXPECT_EQ(agg.pids_seen(), 0u);
  EXPECT_FALSE(agg.global().any());
}

// ---------------------------------------------------------------------------
// Golden exposition: the byte-exact /metrics and CSV output for a fixed
// seeded stream. It pins the renderers and the window store together, so a
// change to either that moves one byte a scraper sees fails here.

/// Five pids of overlapping accesses over ~150 ms in shuffled arrival order
/// (a local Fisher-Yates, so the order does not depend on the standard
/// library), plus a block count past 2^32 and a 6 s response time.
std::vector<IoRecord> golden_stream() {
  Rng rng(2013);
  std::vector<IoRecord> records;
  std::int64_t t = 5'000'000'000;
  for (int i = 0; i < 320; ++i) {
    t += static_cast<std::int64_t>(rng.uniform_u64(900'000));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(2'500'000)) + 1;
    const auto pid = static_cast<std::uint32_t>(100 + rng.uniform_u64(5));
    const std::uint8_t flags =
        rng.uniform_u64(10) == 0 ? trace::kIoFailed : trace::kIoOk;
    records.push_back(make_record(pid, rng.uniform_u64(64) + 1, SimTime(t),
                                  SimTime(t + len), trace::IoOpKind::read,
                                  flags));
  }
  records.push_back(make_record(101, (1ULL << 32) + 7,
                                SimTime(t - 30'000'000),
                                SimTime(t - 29'000'000)));
  records.push_back(make_record(102, 3, SimTime(t - 6'000'000'000),
                                SimTime(t - 20'000'000)));
  for (std::size_t i = records.size() - 1; i > 0; --i) {
    std::swap(records[i], records[rng.uniform_u64(i + 1)]);
  }
  return records;
}

/// Frames of 1-16 records (or one record at a time), then an advance() that
/// expires the stream's first ~40 ms.
void feed_golden(MetricAggregator& agg, bool frames) {
  const std::vector<IoRecord> records = golden_stream();
  std::int64_t last_end = 0;
  for (const IoRecord& r : records) last_end = std::max(last_end, r.end_ns);
  Rng slicer(17);
  std::span<const IoRecord> rest(records);
  while (!rest.empty()) {
    const std::size_t take =
        std::min<std::size_t>(slicer.uniform_u64(16) + 1, rest.size());
    if (frames) {
      agg.add(rest.subspan(0, take));
    } else {
      for (const IoRecord& r : rest.subspan(0, take)) agg.add(r);
    }
    rest = rest.subspan(take);
  }
  agg.advance_windows(SimTime(last_end + 60'000'000));
}

constexpr const char* kGoldenAgentMetrics = R"golden(# HELP bpsio_records_total I/O access records received.
# TYPE bpsio_records_total counter
bpsio_records_total 322
# HELP bpsio_blocks_total Application-required blocks received (B).
# TYPE bpsio_blocks_total counter
bpsio_blocks_total 4294978674
# HELP bpsio_failed_records_total Records flagged as failed accesses (still counted in B).
# TYPE bpsio_failed_records_total counter
bpsio_failed_records_total 24
# HELP bpsio_sync_records_total fsync/fdatasync records (zero-block, time-only).
# TYPE bpsio_sync_records_total counter
bpsio_sync_records_total 0
# HELP bpsio_invalid_records_total Records rejected (end < start).
# TYPE bpsio_invalid_records_total counter
bpsio_invalid_records_total 0
# HELP bpsio_clients_connected_total Capture connections accepted.
# TYPE bpsio_clients_connected_total counter
bpsio_clients_connected_total 6
# HELP bpsio_clients_active Capture connections currently open.
# TYPE bpsio_clients_active gauge
bpsio_clients_active 2
# HELP bpsio_frames_total Complete record frames decoded.
# TYPE bpsio_frames_total counter
bpsio_frames_total 41
# HELP bpsio_bad_frames_total Connections dropped on a malformed frame.
# TYPE bpsio_bad_frames_total counter
bpsio_bad_frames_total 1
# HELP bpsio_forward_frames_total Tagged frames shipped to the upstream collector.
# TYPE bpsio_forward_frames_total counter
bpsio_forward_frames_total 40
# HELP bpsio_forward_records_total Records shipped upstream.
# TYPE bpsio_forward_records_total counter
bpsio_forward_records_total 318
# HELP bpsio_forward_spilled_records_total Records diverted to the forward spill fallback.
# TYPE bpsio_forward_spilled_records_total counter
bpsio_forward_spilled_records_total 4
# HELP bpsio_forward_dropped_records_total Records dropped with no upstream and no spill dir.
# TYPE bpsio_forward_dropped_records_total counter
bpsio_forward_dropped_records_total 0
# HELP bpsio_pids_seen Distinct process ids observed.
# TYPE bpsio_pids_seen gauge
bpsio_pids_seen 5
# HELP bpsio_window_seconds Sliding-window length.
# TYPE bpsio_window_seconds gauge
bpsio_window_seconds 0.100
# HELP bpsio_block_size_bytes Block unit used for bandwidth.
# TYPE bpsio_block_size_bytes gauge
bpsio_block_size_bytes 512
# HELP bpsio_window_bps Windowed BPS (blocks per second of busy time) per pid; pid="all" is the global stream.
# TYPE bpsio_window_bps gauge
bpsio_window_records{pid="all"} 91
bpsio_window_blocks{pid="all"} 4294970489
bpsio_window_io_seconds{pid="all"} 0.039905223
bpsio_window_bps{pid="all"} 107629281735.877
bpsio_window_iops{pid="all"} 910.000
bpsio_window_bw_bytes_per_second{pid="all"} 21990248903680.000
bpsio_window_arpt_seconds{pid="all"} 0.067008008
bpsio_window_records{pid="100"} 28
bpsio_window_blocks{pid="100"} 1052
bpsio_window_io_seconds{pid="100"} 0.027449207
bpsio_window_bps{pid="100"} 38325.333
bpsio_window_iops{pid="100"} 280.000
bpsio_window_bw_bytes_per_second{pid="100"} 5386240.000
bpsio_window_arpt_seconds{pid="100"} 0.001349449
bpsio_window_records{pid="101"} 20
bpsio_window_blocks{pid="101"} 4294968059
bpsio_window_io_seconds{pid="101"} 0.020574886
bpsio_window_bps{pid="101"} 208748085359.987
bpsio_window_iops{pid="101"} 200.000
bpsio_window_bw_bytes_per_second{pid="101"} 21990236462080.000
bpsio_window_arpt_seconds{pid="101"} 0.001244157
bpsio_window_records{pid="102"} 11
bpsio_window_blocks{pid="102"} 239
bpsio_window_io_seconds{pid="102"} 0.028352520
bpsio_window_bps{pid="102"} 8429.586
bpsio_window_iops{pid="102"} 110.000
bpsio_window_bw_bytes_per_second{pid="102"} 1223680.000
bpsio_window_arpt_seconds{pid="102"} 0.544853009
bpsio_window_records{pid="103"} 17
bpsio_window_blocks{pid="103"} 620
bpsio_window_io_seconds{pid="103"} 0.014717272
bpsio_window_bps{pid="103"} 42127.373
bpsio_window_iops{pid="103"} 170.000
bpsio_window_bw_bytes_per_second{pid="103"} 3174400.000
bpsio_window_arpt_seconds{pid="103"} 0.001276516
bpsio_window_records{pid="104"} 15
bpsio_window_blocks{pid="104"} 519
bpsio_window_io_seconds{pid="104"} 0.018468793
bpsio_window_bps{pid="104"} 28101.457
bpsio_window_iops{pid="104"} 150.000
bpsio_window_bw_bytes_per_second{pid="104"} 2657280.000
bpsio_window_arpt_seconds{pid="104"} 0.001331811
)golden";

constexpr const char* kGoldenAgentCsv = R"golden(pid,window_records,window_blocks,window_io_s,window_bps,window_iops,window_bw_Bps,window_arpt_s
all,91,4294970489,0.039905223,107629281735.877,910.000,21990248903680.000,0.067008008
100,28,1052,0.027449207,38325.333,280.000,5386240.000,0.001349449
101,20,4294968059,0.020574886,208748085359.987,200.000,21990236462080.000,0.001244157
102,11,239,0.028352520,8429.586,110.000,1223680.000,0.544853009
103,17,620,0.014717272,42127.373,170.000,3174400.000,0.001276516
104,15,519,0.018468793,28101.457,150.000,2657280.000,0.001331811
)golden";

TEST(Aggregator, GoldenExposition) {
  TransportStats transport;
  transport.connected_total = 6;
  transport.active = 2;
  transport.frames_total = 41;
  transport.bad_frames_total = 1;
  transport.forward = ForwardStats{true, 40, 318, 4, 0};
  for (const bool frames : {true, false}) {
    MetricAggregator agg = make_aggregator();
    feed_golden(agg, frames);
    EXPECT_EQ(agg.prometheus_text(transport), kGoldenAgentMetrics)
        << "frames " << frames;
    EXPECT_EQ(agg.csv_snapshot(), kGoldenAgentCsv) << "frames " << frames;
  }
}

// ---------------------------------------------------------------------------
// The agent preset of the ingest server, in process.

TEST(AgentPreset, SocketToMetricsToDrain) {
  const std::filesystem::path dir = make_temp_dir("agent_test");
  ASSERT_FALSE(dir.empty());

  ingest::ServerOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = 0;  // ephemeral
  options.port_file = (dir / "port").string();
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.expect_clients = 1;

  MetricAggregator store(SimDuration::from_seconds(10), kBlock);
  ingest::Server server(options, store);
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.http_port(), 0);

  // The port-file handshake scripts rely on: one decimal line.
  std::ifstream port_file(options.port_file);
  int advertised = 0;
  ASSERT_TRUE(port_file >> advertised);
  EXPECT_EQ(advertised, server.http_port());

  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  const int client = connect_unix(options.socket_path);
  ASSERT_GE(client, 0);

  // Two frames on one connection, start-ordered like a real capture thread.
  const std::vector<IoRecord> batch1 = {
      make_record(42, 8, SimTime(1000), SimTime(2000)),
      make_record(42, 8, SimTime(3000), SimTime(4000)),
  };
  const std::vector<IoRecord> batch2 = {
      make_record(42, 16, SimTime(5000), SimTime(6000), trace::IoOpKind::write),
  };
  std::vector<char> wire;
  trace::encode_frame(batch1, wire);
  ASSERT_TRUE(send_all(client, wire));
  wire.clear();
  trace::encode_frame(batch2, wire);
  ASSERT_TRUE(send_all(client, wire));

  // The daemon and this test share no memory ordering except the sockets:
  // poll /metrics until the records land (bounded, normally 1-2 tries).
  std::string metrics;
  for (int attempt = 0; attempt < 250; ++attempt) {
    metrics = http_get(server.http_port(), "/metrics");
    if (metrics.find("bpsio_records_total 3\n") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_records_total 3\n"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_blocks_total 32\n"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_clients_active 1\n"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_frames_total 2\n"), std::string::npos);

  EXPECT_NE(http_get(server.http_port(), "/healthz").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(http_get(server.http_port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);

  // Closing the only expected client lets run() finish and drain.
  ::close(client);
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.to_string();

  // run() is over; the aggregator is safe to read directly now.
  EXPECT_EQ(store.records_total(), 3u);
  EXPECT_EQ(store.blocks_total(), 32u);
  EXPECT_EQ(server.transport().connected_total, 1u);
  EXPECT_EQ(server.transport().active, 0u);
  EXPECT_EQ(server.transport().bad_frames_total, 0u);

  // The drain is a normal v2 trace holding exactly the shipped records in
  // (start, end) order, and the spool scaffolding is gone.
  auto drained = trace::load_binary(options.drain_path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  std::vector<IoRecord> expected = batch1;
  expected.insert(expected.end(), batch2.begin(), batch2.end());
  EXPECT_EQ(*drained, expected);
  EXPECT_FALSE(std::filesystem::exists(options.spool_dir));

  std::filesystem::remove_all(dir);
}

TEST(AgentPreset, StopFlagShutsDownWithoutClients) {
  const std::filesystem::path dir = make_temp_dir("agent_test");
  ASSERT_FALSE(dir.empty());

  std::atomic<bool> stop{false};
  ingest::ServerOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = -1;  // HTTP off entirely
  options.stop = &stop;

  MetricAggregator store = make_aggregator();
  ingest::Server server(options, store);
  ASSERT_TRUE(server.start().ok());
  EXPECT_LT(server.http_port(), 0);

  Status run_status;
  std::thread serving([&] { run_status = server.run(); });
  stop.store(true);
  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(store.records_total(), 0u);

  std::filesystem::remove_all(dir);
}

TEST(AgentPreset, BadFrameDropsTheConnectionNotTheDaemon) {
  const std::filesystem::path dir = make_temp_dir("agent_test");
  ASSERT_FALSE(dir.empty());

  ingest::ServerOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = -1;
  options.expect_clients = 2;

  MetricAggregator store = make_aggregator();
  ingest::Server server(options, store);
  ASSERT_TRUE(server.start().ok());
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  // Client 1 sends garbage where a frame header belongs.
  const int bad = connect_unix(options.socket_path);
  ASSERT_GE(bad, 0);
  const std::vector<char> junk(16, 'Z');
  ASSERT_TRUE(send_all(bad, junk));
  ::close(bad);

  // Client 2 is healthy and must still be served.
  const int good = connect_unix(options.socket_path);
  ASSERT_GE(good, 0);
  std::vector<char> wire;
  trace::encode_frame(
      std::vector<IoRecord>{make_record(9, 4, SimTime(0), SimTime(1000))},
      wire);
  ASSERT_TRUE(send_all(good, wire));
  ::close(good);

  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(server.transport().bad_frames_total, 1u);
  EXPECT_EQ(store.records_total(), 1u);
  EXPECT_EQ(store.blocks_total(), 4u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bpsio::agent
