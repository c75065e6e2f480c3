#include "trace/frame.hpp"

#include <cstring>

#include "common/check.hpp"

namespace bpsio::trace {
namespace {

/// Hello payloads are zero-padded so every later frame payload stays
/// 8-aligned inside the connection buffer (the zero-copy fast path).
std::size_t padded_tenant_len(std::uint32_t tenant_len) {
  return (std::size_t{tenant_len} + 7) & ~std::size_t{7};
}

bool tenant_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' ||
         c == '-';
}

}  // namespace

bool valid_tenant(std::string_view tenant) {
  if (tenant.empty() || tenant.size() > kMaxTenantLen) return false;
  for (char c : tenant) {
    if (!tenant_char(c)) return false;
  }
  return true;
}

void encode_frame(std::span<const IoRecord> records, std::vector<char>& out) {
  FrameHeader header;
  header.record_count = static_cast<std::uint32_t>(records.size());
  const std::size_t payload = records.size() * sizeof(IoRecord);
  const std::size_t at = out.size();
  out.resize(at + sizeof header + payload);
  std::memcpy(out.data() + at, &header, sizeof header);
  if (payload > 0) {
    std::memcpy(out.data() + at + sizeof header, records.data(), payload);
  }
}

void encode_tagged_frame(std::uint64_t stream_id,
                         std::span<const IoRecord> records,
                         std::vector<char>& out) {
  TaggedFrameHeader header;
  header.record_count = static_cast<std::uint32_t>(records.size());
  header.stream_id = stream_id;
  const std::size_t payload = records.size() * sizeof(IoRecord);
  const std::size_t at = out.size();
  out.resize(at + sizeof header + payload);
  std::memcpy(out.data() + at, &header, sizeof header);
  if (payload > 0) {
    std::memcpy(out.data() + at + sizeof header, records.data(), payload);
  }
}

void encode_hello(std::string_view tenant, std::vector<char>& out) {
  BPSIO_CHECK(valid_tenant(tenant), "encode_hello: illegal tenant id '%.*s'",
              static_cast<int>(tenant.size()), tenant.data());
  const std::uint32_t magic = kHelloMagic;
  const auto tenant_len = static_cast<std::uint32_t>(tenant.size());
  const std::size_t padded = padded_tenant_len(tenant_len);
  const std::size_t at = out.size();
  out.resize(at + 8 + padded, '\0');
  std::memcpy(out.data() + at, &magic, 4);
  std::memcpy(out.data() + at + 4, &tenant_len, 4);
  std::memcpy(out.data() + at + 8, tenant.data(), tenant.size());
}

void FrameDecoder::poison(std::string message) {
  status_ = Error{Errc::invalid_argument, std::move(message)};
  buf_.clear();
}

std::size_t FrameDecoder::header_size(const char* p) {
  std::uint32_t magic;
  std::memcpy(&magic, p, 4);
  switch (magic) {
    case kFrameMagic:
    case kHelloMagic:
      return sizeof(FrameHeader);
    case kTaggedFrameMagic:
      return sizeof(TaggedFrameHeader);
    default:
      poison("bad frame magic (corrupt or foreign stream)");
      return 0;
  }
}

std::size_t FrameDecoder::frame_size(const char* p) {
  std::uint32_t magic;
  std::uint32_t second;
  std::memcpy(&magic, p, 4);
  std::memcpy(&second, p + 4, 4);
  if (magic == kHelloMagic) {
    if (second == 0 || second > kMaxTenantLen) {
      poison("hello claims a " + std::to_string(second) +
             "-byte tenant id (max " + std::to_string(kMaxTenantLen) +
             "); rejecting stream");
      return 0;
    }
    return sizeof(FrameHeader) + padded_tenant_len(second);
  }
  if (second > kMaxFrameRecords) {
    poison("frame claims " + std::to_string(second) + " records (max " +
           std::to_string(kMaxFrameRecords) + "); rejecting stream");
    return 0;
  }
  const std::size_t header =
      magic == kTaggedFrameMagic ? sizeof(TaggedFrameHeader)
                                 : sizeof(FrameHeader);
  return header + std::size_t{second} * sizeof(IoRecord);
}

void FrameDecoder::emit(const char* payload, std::uint32_t count,
                        std::uint64_t stream, const TaggedFrameSink& sink) {
  std::span<const IoRecord> records;
  if (reinterpret_cast<std::uintptr_t>(payload) % alignof(IoRecord) == 0) {
    records = {reinterpret_cast<const IoRecord*>(payload), count};
  } else {
    // Misaligned payload (headers keep in-place frames aligned, but a
    // caller may feed from an offset buffer): one aligned copy, then a span
    // over the scratch.
    scratch_.resize(count);
    std::memcpy(scratch_.data(), payload,
                std::size_t{count} * sizeof(IoRecord));
    records = scratch_;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].times_in_range()) {
      poison("frame record " + std::to_string(i) + " has start " +
             std::to_string(records[i].start_ns) + " and end " +
             std::to_string(records[i].end_ns) +
             ", outside 0 <= start <= end; rejecting stream");
      return;
    }
  }
  sink(stream, records);
}

void FrameDecoder::dispatch(const char* p, const TaggedFrameSink& sink) {
  std::uint32_t magic;
  std::memcpy(&magic, p, 4);
  if (magic == kHelloMagic) {
    if (hello_seen_ || frames_ > 0) {
      poison("hello frame after the stream already started");
      return;
    }
    std::uint32_t tenant_len;
    std::memcpy(&tenant_len, p + 4, 4);
    const std::string_view tenant(p + 8, tenant_len);
    if (!valid_tenant(tenant)) {
      poison("hello carries an illegal tenant id; rejecting stream");
      return;
    }
    hello_seen_ = true;
    tenant_.assign(tenant);
    return;
  }
  std::uint32_t count;
  std::memcpy(&count, p + 4, 4);
  std::uint64_t stream = 0;
  std::size_t payload_at = sizeof(FrameHeader);
  if (magic == kTaggedFrameMagic) {
    std::memcpy(&stream, p + 8, 8);
    payload_at = sizeof(TaggedFrameHeader);
  }
  ++frames_;
  if (count > 0) emit(p + payload_at, count, stream, sink);
}

Status FrameDecoder::feed(const char* data, std::size_t n,
                          const TaggedFrameSink& sink) {
  if (!status_.ok()) return status_;
  std::size_t at = 0;

  // Stage 1: a frame left split across feeds — finish buffering it and emit
  // from the (aligned) internal buffer. Header length depends on the magic,
  // so the buffer grows in up to three steps: magic, full header, full frame.
  if (!buf_.empty()) {
    if (buf_.size() < 4) {
      const std::size_t take = std::min(std::size_t{4} - buf_.size(), n);
      buf_.insert(buf_.end(), data, data + take);
      at += take;
      if (buf_.size() < 4) return status_;
    }
    const std::size_t header = header_size(buf_.data());
    if (header == 0) return status_;
    if (buf_.size() < header) {
      const std::size_t take = std::min(header - buf_.size(), n - at);
      buf_.insert(buf_.end(), data + at, data + at + take);
      at += take;
      if (buf_.size() < header) return status_;
    }
    const std::size_t total = frame_size(buf_.data());
    if (total == 0) return status_;
    if (buf_.size() < total) {
      const std::size_t take = std::min(total - buf_.size(), n - at);
      buf_.insert(buf_.end(), data + at, data + at + take);
      at += take;
      if (buf_.size() < total) return status_;
    }
    dispatch(buf_.data(), sink);
    buf_.clear();
    if (!status_.ok()) return status_;
  }

  // Stage 2: frames lying wholly inside `data` — emitted without entering
  // the internal buffer at all (zero copy when the payload is aligned).
  while (n - at >= 4) {
    const std::size_t header = header_size(data + at);
    if (header == 0) return status_;
    if (n - at < header) break;  // incomplete header tail
    const std::size_t total = frame_size(data + at);
    if (total == 0) return status_;
    if (n - at < total) break;  // incomplete frame tail
    dispatch(data + at, sink);
    if (!status_.ok()) return status_;
    at += total;
  }

  // Stage 3: stash the partial tail for the next feed.
  buf_.insert(buf_.end(), data + at, data + n);
  return status_;
}

Status FrameDecoder::feed(const char* data, std::size_t n,
                          const FrameSink& sink) {
  return feed(data, n,
              TaggedFrameSink([&sink](std::uint64_t,
                                      std::span<const IoRecord> frame) {
                sink(frame);
              }));
}

}  // namespace bpsio::trace
