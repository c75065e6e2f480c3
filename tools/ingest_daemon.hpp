// The command line of the two ingest daemons.
//
// bpsio_agentd and bpsio_collectord are two presets over one
// ingest::Server (src/ingest/server.hpp). They share most flags and differ
// in the store the server drives and in the flags that only that tier
// has:
//
//   agent      MetricAggregator (windows per pid), connections serviced
//              inline on the poll loop, --forward* to ship every frame to
//              an upstream daemon, --expect-clients;
//   collector  TenantShards (windows per tenant), --io-threads worker
//              threads, --shards, --tcp-port ingest, --drain-tenant-dir,
//              --expect-agents.
//
// SIGINT/SIGTERM stop either daemon cleanly (drain included).
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agent/aggregator.hpp"
#include "cli.hpp"
#include "collector/tenant_shards.hpp"
#include "common/config.hpp"
#include "ingest/server.hpp"

namespace bpsio::ingestd {

enum class Preset { agent, collector };

inline std::atomic<bool> g_stop{false};

inline void handle_stop(int) { g_stop.store(true); }

/// Start the server over `store`, serve until stopped, report the totals.
template <typename StoreT>
int serve(const char* name, ingest::ServerOptions options, StoreT& store) {
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGPIPE, SIG_IGN);

  ingest::Server server(std::move(options), store);
  if (const Status started = server.start(); !started.ok()) {
    std::fprintf(stderr, "%s: %s\n", name, started.to_string().c_str());
    return 1;
  }
  if (server.http_port() >= 0) {
    std::fprintf(stderr, "%s: listening (metrics on 127.0.0.1:%d)\n", name,
                 server.http_port());
  }
  if (const Status ran = server.run(); !ran.ok()) {
    std::fprintf(stderr, "%s: %s\n", name, ran.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s: done (%llu records, %llu blocks, %llu connection(s))\n",
               name, static_cast<unsigned long long>(store.records_total()),
               static_cast<unsigned long long>(store.blocks_total()),
               static_cast<unsigned long long>(
                   server.transport().connected_total));
  return 0;
}

/// Parse `argv` for `preset` and run the daemon; returns the exit code
/// (2 on bad usage).
inline int run_daemon(int argc, char** argv, Preset preset) {
  const bool is_agent = preset == Preset::agent;
  const char* name = is_agent ? "bpsio_agentd" : "bpsio_collectord";
  ingest::ServerOptions opt;
  opt.stop = &g_stop;
  std::int64_t window_ns = 10'000'000'000;
  std::int64_t csv_interval_ns = 1'000'000'000;
  long long tcp_port = -1;
  long long http_port = 0;
  long long io_threads = 2;
  long long shards = 8;
  long long expect = 0;
  long long forward_batch = 4096;
  agent::ForwardOptions forward;
  std::string block_size_text;

  cli::ArgParser parser(
      name, is_agent
                ? "Live BPS aggregation daemon: receives capture frames over "
                  "a Unix socket,\nserves windowed metrics on /metrics, and "
                  "can drain all records to a .bpstrace."
                : "Fleet-scale BPS collector: aggregates frame streams from "
                  "many agents into\nper-tenant windowed metrics on /metrics, "
                  "with an optional merged drain trace.");
  parser.add_string("--socket", &opt.socket_path, "PATH",
                    "Unix-domain socket to listen on (required)");
  if (!is_agent) {
    parser.add_int("--tcp-port", &tcp_port, -1, 65535, "PORT",
                   "loopback TCP ingest port; 0 = ephemeral, -1 = no TCP "
                   "(default -1)");
    parser.add_string("--tcp-port-file", &opt.tcp_port_file, "PATH",
                      "write the bound TCP ingest port here");
  }
  parser.add_int("--http-port", &http_port, -1, 65535, "PORT",
                 "loopback /metrics port; 0 = ephemeral, -1 = no HTTP "
                 "(default 0)");
  parser.add_string("--port-file", &opt.port_file, "PATH",
                    "write the bound HTTP port here (for ephemeral ports)");
  parser.add_string("--csv", &opt.csv_path, "PATH",
                    is_agent ? "rewrite a per-pid CSV snapshot here every "
                               "interval"
                             : "rewrite a per-tenant CSV snapshot here every "
                               "interval");
  parser.add_duration("--csv-interval", &csv_interval_ns, cli::kNsPerSec,
                      "SECS", "snapshot cadence (default 1)");
  parser.add_string("--drain", &opt.drain_path, "PATH",
                    "on shutdown, write every received record as one "
                    "merged .bpstrace");
  if (!is_agent) {
    parser.add_string("--drain-tenant-dir", &opt.drain_tenant_dir, "DIR",
                      "on shutdown, also write tenant-<name>.bpstrace per "
                      "tenant here");
  }
  parser.add_string("--spool-dir", &opt.spool_dir, "DIR",
                    "per-stream spool directory backing the drains "
                    "(default: <drain path>.spool.d)");
  if (is_agent) {
    parser.add_string("--forward", &forward.target, "TARGET",
                      "ship every received frame upstream to a "
                      "bpsio_collectord or relay bpsio_agentd (host:port = "
                      "loopback TCP, otherwise a Unix socket path)");
    parser.add_string("--forward-tenant", &forward.tenant, "ID",
                      "tenant id announced upstream (default \"default\")");
    parser.add_string("--forward-spill-dir", &forward.spill_dir, "DIR",
                      "fallback spill directory when the upstream link fails "
                      "(default: drop and count)");
    parser.add_int("--forward-batch", &forward_batch, 1, 1'048'576, "N",
                   "records per upstream frame (default 4096)");
  }
  parser.add_duration("--window", &window_ns, cli::kNsPerMs, "MS",
                      "sliding-window length for live metrics "
                      "(default 10000)");
  parser.add_value("--block-size", "BYTES",
                   "block unit for byte figures (default 512; accepts 4K "
                   "suffixes)",
                   [&block_size_text](const std::string& v) {
                     block_size_text = v;
                     return !v.empty();
                   });
  if (!is_agent) {
    parser.add_int("--io-threads", &io_threads, 1, 256, "N",
                   "I/O worker threads servicing agent connections "
                   "(default 2)");
    parser.add_int("--shards", &shards, 1, 4096, "N",
                   "tenant shard count for the metric state (default 8)");
  }
  parser.add_int(is_agent ? "--expect-clients" : "--expect-agents", &expect,
                 1, 1'000'000, "N",
                 is_agent ? "exit once N capture connections have come and "
                            "gone (deterministic shutdown for tests/CI)"
                          : "exit once N agent connections have come and gone "
                            "(deterministic shutdown for tests/CI)");

  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::ok:
      break;
    case cli::ArgParser::Outcome::help:
      return 0;
    case cli::ArgParser::Outcome::error:
      return 2;
  }
  if (!positionals.empty()) {
    std::fprintf(stderr, "%s: unexpected operand '%s'\n%s", name,
                 positionals.front().c_str(), parser.usage().c_str());
    return 2;
  }
  if (opt.socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket is required\n%s", name,
                 parser.usage().c_str());
    return 2;
  }
  Bytes block_size = kDefaultBlockSize;
  if (!block_size_text.empty()) {
    const auto parsed = Config::parse_bytes(block_size_text);
    if (!parsed || *parsed == 0) {
      std::fprintf(stderr, "%s: bad --block-size '%s'\n", name,
                   block_size_text.c_str());
      return 2;
    }
    block_size = *parsed;
  }
  const SimDuration window(window_ns);
  opt.tcp_port = static_cast<int>(tcp_port);
  opt.http_port = static_cast<int>(http_port);
  opt.csv_interval = SimDuration(csv_interval_ns);
  opt.expect_clients = static_cast<std::uint64_t>(expect);
  if ((!opt.drain_path.empty() || !opt.drain_tenant_dir.empty()) &&
      opt.spool_dir.empty()) {
    opt.spool_dir = (opt.drain_path.empty() ? opt.drain_tenant_dir + "/all"
                                            : opt.drain_path) +
                    ".spool.d";
  }

  if (is_agent) {
    if (!forward.target.empty()) {
      forward.batch = static_cast<std::size_t>(forward_batch);
      opt.forward = std::move(forward);
    }
    agent::MetricAggregator store(window, block_size);
    return serve(name, std::move(opt), store);
  }
  opt.io_threads = static_cast<std::size_t>(io_threads);
  collector::TenantShards store(static_cast<std::size_t>(shards), window,
                                block_size);
  return serve(name, std::move(opt), store);
}

}  // namespace bpsio::ingestd
