// bpsio_collectord — fleet-scale BPS collector daemon.
//
// The tier above bpsio_agentd: many agents (or capture clients directly)
// ship length-prefixed record frames here over a Unix-domain socket or
// loopback TCP; the collector maintains sliding-window BPS / IOPS / BW /
// ARPT per TENANT (announced by each connection's hello frame; hello-less
// connections land in "default") plus the fleet-wide stream, serves them as
// Prometheus plaintext on GET /metrics, optionally rewrites a per-tenant
// CSV snapshot every interval, and on shutdown can drain everything it
// received into a single merged v2 .bpstrace (plus one trace per tenant)
// that bpsio_report analyzes exactly like a direct file spill.
//
//   bpsio_collectord --socket=/tmp/bpsio-collector.sock [options]
//
// Run `bpsio_collectord --help` for the flag list. Typical two-tier session:
//
//   bpsio_collectord --socket=/tmp/collector.sock --http-port=9124 &
//   bpsio_agentd --socket=/tmp/agent.sock
//       --forward=/tmp/collector.sock --forward-tenant=web &
//   BPSIO_CAPTURE_SOCKET=/tmp/agent.sock
//     LD_PRELOAD=$PWD/libbpsio_capture.so ./your_app
//   curl -s localhost:9124/metrics | grep 'tenant="web"'
//
// The collector preset of ingest_daemon.hpp. SIGINT/SIGTERM stop the
// daemon cleanly (drain included).
#include "ingest_daemon.hpp"

int main(int argc, char** argv) {
  return bpsio::ingestd::run_daemon(argc, argv,
                                    bpsio::ingestd::Preset::collector);
}
