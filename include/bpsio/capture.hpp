// Public facade: real-I/O capture configuration.
//
// Stable entry points re-exported here:
//   * capture::CaptureConfig / parse_capture_config — the BPSIO_CAPTURE_*
//     environment contract shared by the LD_PRELOAD interposer, the tools,
//     and the tests                        (src/capture/capture_config.hpp)
//   * capture::capture_trace_path / fd_passes_filters / requested_blocks
//
// The interposer itself (libbpsio_capture.so) has no linkable API — it is
// all LD_PRELOAD — and the live daemons' internals (src/ingest with its
// stores in src/agent and src/collector) are tool implementation, not
// public surface. What IS stable is the data they
// exchange: the .bpstrace container (bpsio/trace.hpp) and the
// BPSIO_CAPTURE_DIR / BPSIO_CAPTURE_SOCKET environment variables documented
// in capture_config.hpp.
//
// See docs/API.md for the stability policy.
#pragma once

#include "capture/capture_config.hpp"
