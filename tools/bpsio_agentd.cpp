// bpsio_agentd — live BPS aggregation daemon.
//
// The daemon end of BPSIO_CAPTURE_SOCKET: capture clients (LD_PRELOAD
// interposer) ship their record buffers here as length-prefixed frames over
// a Unix-domain socket; the daemon maintains sliding-window BPS / IOPS /
// BW / ARPT for the global stream and per pid, serves them as Prometheus
// plaintext on GET /metrics (127.0.0.1), optionally rewrites a CSV snapshot
// every interval, and on shutdown can drain everything it received into a
// single merged v2 .bpstrace that bpsio_report analyzes exactly like a
// direct file spill. With --forward it also ships every frame upstream to
// a bpsio_collectord, or to another bpsio_agentd acting as a relay.
//
//   bpsio_agentd --socket=/tmp/bpsio.sock [options]
//
// Run `bpsio_agentd --help` for the flag list. Typical live session:
//
//   bpsio_agentd --socket=/tmp/bpsio.sock --http-port=9123 &
//   BPSIO_CAPTURE_SOCKET=/tmp/bpsio.sock BPSIO_CAPTURE_DIR=/tmp/spill
//     LD_PRELOAD=$PWD/libbpsio_capture.so ./your_app
//   curl -s localhost:9123/metrics | grep bpsio_window_bps
//
// The agent preset of ingest_daemon.hpp. SIGINT/SIGTERM stop the daemon
// cleanly (drain included).
#include "ingest_daemon.hpp"

int main(int argc, char** argv) {
  return bpsio::ingestd::run_daemon(argc, argv, bpsio::ingestd::Preset::agent);
}
