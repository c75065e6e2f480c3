// Wire framing for live record shipping — the transport format between the
// LD_PRELOAD capture clients, the bpsio_agentd aggregation daemon, and the
// fleet-scale bpsio_collectord tier above it.
//
// A connection carries a sequence of length-prefixed frames over a byte
// stream (Unix-domain or loopback TCP socket). Three frame kinds share the
// stream, distinguished by a 4-byte magic:
//
//   data frame ("BPSF") — 8-byte header + `record_count` raw v2 IoRecords,
//   the same 32-byte wire records the .bpstrace container stores, so the
//   capture client ships its spill buffer verbatim and the daemon's drain
//   file is byte-equal to what a direct file spill would have written:
//
//     +----------------+---------------+------------------------------+
//     | magic (u32)    | count (u32)   | count * 32-byte IoRecord     |
//     +----------------+---------------+------------------------------+
//
//   tagged data frame ("BPSG") — 16-byte header + records. Carries a u64
//   stream id naming the ORIGIN stream of the records: when bpsio_agentd
//   forwards many capture connections upstream over one collector
//   connection, each downstream connection keeps its identity, so the
//   collector can spool per (connection, stream) and every spool stays
//   start-ordered — the invariant the shutdown k-way merge relies on:
//
//     +-------------+-------------+-----------------+---------------------+
//     | magic (u32) | count (u32) | stream_id (u64) | count * 32B records |
//     +-------------+-------------+-----------------+---------------------+
//
//   hello frame ("BPSH") — 8-byte header + a tenant/application id, padded
//   with zero bytes to an 8-byte boundary (so the payloads of later frames
//   stay 8-aligned in the connection buffer and keep the zero-copy path).
//   Sent at most once, before any data frame; it tags everything on the
//   connection with the tenant for per-tenant fleet metrics. A connection
//   that opens straight with a data frame is tenant-less (the collector
//   files it under "default"):
//
//     +-------------+------------------+--------------------------------+
//     | magic (u32) | tenant_len (u32) | tenant bytes, zero-padded to 8 |
//     +-------------+------------------+--------------------------------+
//
// Framing contract:
//  * A frame is processed only when fully received. A connection that dies
//    mid-frame loses only that frame's records ON THE RECEIVER SIDE — the
//    sender treats a failed send as "frame not delivered" and falls back to
//    file spill for the same buffer, so records are never lost and never
//    double-counted (at most one of the two transports carries each buffer).
//  * Records within one (connection, stream id) are in nondecreasing
//    (start, end) order — untagged frames are stream 0, so for a capture
//    client (one thread's start-ordered stream per connection) this is the
//    PR-5 per-connection contract unchanged, and a forwarder must ship each
//    origin stream's frames in order under a stable stream id. This is what
//    lets receivers k-way merge per-stream spools without sorting.
//  * All fields little-endian host order, like the .bpstrace header (the
//    capture tier is same-machine or same-arch fleet by definition).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "trace/io_record.hpp"

namespace bpsio::trace {

inline constexpr std::uint32_t kFrameMagic = 0x42505346;        // "BPSF"
inline constexpr std::uint32_t kTaggedFrameMagic = 0x42505347;  // "BPSG"
inline constexpr std::uint32_t kHelloMagic = 0x42505348;        // "BPSH"

/// Upper bound on records per frame: rejects garbage length prefixes before
/// they turn into multi-gigabyte buffer reservations. Capture clients ship
/// one spill buffer per frame (default 4096 records) and clamp
/// BPSIO_CAPTURE_BUFFER_RECORDS to this bound.
inline constexpr std::uint32_t kMaxFrameRecords = 1u << 20;

/// Tenant ids are Prometheus labels, file-name fragments, and CSV cells;
/// restricting them to [A-Za-z0-9._:-] up to this length makes them safe in
/// all three without escaping.
inline constexpr std::uint32_t kMaxTenantLen = 64;

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t record_count = 0;
};
static_assert(sizeof(FrameHeader) == 8, "frame header is part of the format");

struct TaggedFrameHeader {
  std::uint32_t magic = kTaggedFrameMagic;
  std::uint32_t record_count = 0;
  std::uint64_t stream_id = 0;
};
static_assert(sizeof(TaggedFrameHeader) == 16,
              "tagged frame header is part of the format");

/// True when `tenant` is a wire-legal tenant id (see kMaxTenantLen).
bool valid_tenant(std::string_view tenant);

/// Append one encoded frame (header + raw records) to `out`. Encoding a
/// frame with more than kMaxFrameRecords records is a caller bug — split
/// the batch first; encode_frame clamps nothing and the decoder would
/// reject it.
void encode_frame(std::span<const IoRecord> records, std::vector<char>& out);

/// Append one tagged frame carrying `stream_id` to `out`; same limits as
/// encode_frame.
void encode_tagged_frame(std::uint64_t stream_id,
                         std::span<const IoRecord> records,
                         std::vector<char>& out);

/// Append one hello frame to `out`. `tenant` must satisfy valid_tenant()
/// (caller bug otherwise — the decoder would poison the stream).
void encode_hello(std::string_view tenant, std::vector<char>& out);

/// Incremental frame decoder for one connection's byte stream. Feed bytes
/// as they arrive; each completed data frame's records reach the caller as
/// one span. Tolerates arbitrary fragmentation (one byte at a time works).
/// A malformed header (bad magic, oversized count, bad tenant, hello after
/// data) or a record outside 0 <= start <= end (IoRecord::times_in_range)
/// poisons the decoder: status() reports the error, the frame reaches no
/// sink, and further bytes are ignored.
///
/// Zero-copy contract (DESIGN.md §13): for a frame lying wholly inside the
/// fed buffer with its payload 8-byte aligned, the span aliases that buffer
/// directly — no copy between the socket read and the metric accumulators.
/// Otherwise (frame split across feeds, or misaligned payload) the records
/// are assembled once into an aligned internal scratch. Either way the span
/// is valid ONLY for the duration of the sink call; a sink that needs the
/// records later must copy them.
class FrameDecoder {
 public:
  /// Receives one completed frame's records. Not invoked for empty frames
  /// (they advance frames_decoded() but carry nothing) nor for hellos.
  using FrameSink = std::function<void(std::span<const IoRecord>)>;
  /// Tagged variant: additionally receives the origin stream id (0 for
  /// untagged "BPSF" frames).
  using TaggedFrameSink =
      std::function<void(std::uint64_t, std::span<const IoRecord>)>;

  /// Consume `n` bytes, invoking `sink` once per completed data frame
  /// (stream ids discarded — the receiver treats the connection as one
  /// stream). Returns the decoder status (also available via status()).
  Status feed(const char* data, std::size_t n, const FrameSink& sink);

  /// Tagged variant for receivers that spool per origin stream.
  Status feed(const char* data, std::size_t n, const TaggedFrameSink& sink);

  Status status() const { return status_; }
  /// Complete data frames decoded so far (hellos not counted).
  std::uint64_t frames_decoded() const { return frames_; }
  /// Tenant id announced by the connection's hello; empty until (and
  /// unless) a hello arrives. Guaranteed stable once the first data frame
  /// has been decoded — a hello is only legal before data.
  const std::string& tenant() const { return tenant_; }
  /// Bytes of an incomplete trailing frame currently buffered. A clean
  /// end-of-stream has 0 pending bytes; anything else means the peer died
  /// mid-frame (those records were never acknowledged as delivered).
  std::size_t pending_bytes() const { return buf_.size(); }

 private:
  /// Header length for the magic at `p` (≥ 4 readable bytes), or 0 after
  /// poisoning on an unknown magic.
  std::size_t header_size(const char* p);
  /// Total wire size of the frame whose full header is at `p`, or 0 after
  /// poisoning on an invalid header.
  std::size_t frame_size(const char* p);
  /// Process one complete frame at `p` (validated header).
  void dispatch(const char* p, const TaggedFrameSink& sink);
  void emit(const char* payload, std::uint32_t count, std::uint64_t stream,
            const TaggedFrameSink& sink);
  void poison(std::string message);

  std::vector<char> buf_;          ///< partial trailing frame bytes
  std::vector<IoRecord> scratch_;  ///< aligned copy target for split frames
  Status status_;
  std::uint64_t frames_ = 0;
  std::string tenant_;
  bool hello_seen_ = false;
};

}  // namespace bpsio::trace
