// Wire framing (trace/frame.hpp): encode/decode round trips, arbitrary
// fragmentation, and malformed-header rejection. The framing contract backs
// the live capture path's no-loss/no-dup guarantee, so the decoder must be
// exact about frame boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "trace/frame.hpp"
#include "trace/io_record.hpp"

namespace bpsio::trace {
namespace {

std::vector<IoRecord> sample_records(int n, std::uint32_t pid = 7) {
  std::vector<IoRecord> records;
  for (int i = 0; i < n; ++i) {
    records.push_back(make_record(pid, 128, SimTime(i * 1000),
                                  SimTime(i * 1000 + 500)));
  }
  return records;
}

/// Adapter keeping the old vector-API assertion shape: collect every
/// emitted frame span into `out`. The spans are only valid inside the sink,
/// which is exactly why the collector copies.
Status feed_collect(FrameDecoder& decoder, const char* data, std::size_t n,
                    std::vector<IoRecord>& out) {
  return decoder.feed(data, n, [&out](std::span<const IoRecord> frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  });
}

TEST(Frame, RoundTripsOneFrame) {
  const std::vector<IoRecord> records = sample_records(5);
  std::vector<char> wire;
  encode_frame(records, wire);
  EXPECT_EQ(wire.size(), sizeof(FrameHeader) + 5 * sizeof(IoRecord));

  FrameDecoder decoder;
  std::vector<IoRecord> out;
  ASSERT_TRUE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_EQ(out, records);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Frame, EmptyFrameIsValid) {
  // A capture thread may flush an empty buffer at close; zero records is a
  // legal frame, not a protocol error.
  std::vector<char> wire;
  encode_frame(std::vector<IoRecord>{}, wire);
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  ASSERT_TRUE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(Frame, ToleratesByteAtATimeDelivery) {
  // SOCK_STREAM guarantees nothing about read boundaries: the decoder must
  // reassemble frames from any fragmentation, including one byte at a time.
  const std::vector<IoRecord> first = sample_records(3, 1);
  const std::vector<IoRecord> second = sample_records(2, 2);
  std::vector<char> wire;
  encode_frame(first, wire);
  encode_frame(second, wire);

  FrameDecoder decoder;
  std::vector<IoRecord> out;
  for (const char byte : wire) {
    ASSERT_TRUE(feed_collect(decoder, &byte, 1, out).ok());
  }
  EXPECT_EQ(decoder.frames_decoded(), 2u);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  std::vector<IoRecord> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(out, expected);
}

TEST(Frame, FragmentationPropertyOnShuffledFrameSizes) {
  // Property-style sweep: a stream of frames with shuffled record counts
  // (empty frames included), delivered once a byte at a time and once in
  // random-sized chunks. Any fragmentation must yield the identical record
  // sequence and exact frame count.
  for (const std::uint64_t seed : {11ULL, 42ULL, 2026ULL}) {
    Rng rng(seed);
    std::vector<std::size_t> counts = {0, 1, 2, 3, 5, 8, 13, 21, 0, 34};
    std::shuffle(counts.begin(), counts.end(), rng);

    std::vector<char> wire;
    std::vector<IoRecord> expected;
    std::uint32_t pid = 1;
    for (const std::size_t count : counts) {
      const std::vector<IoRecord> frame =
          sample_records(static_cast<int>(count), pid++);
      encode_frame(frame, wire);
      expected.insert(expected.end(), frame.begin(), frame.end());
    }

    {
      FrameDecoder decoder;
      std::vector<IoRecord> out;
      for (const char byte : wire) {
        ASSERT_TRUE(feed_collect(decoder, &byte, 1, out).ok());
      }
      EXPECT_EQ(decoder.frames_decoded(), counts.size()) << "seed " << seed;
      EXPECT_EQ(decoder.pending_bytes(), 0u);
      EXPECT_EQ(out, expected) << "seed " << seed;
    }

    {
      FrameDecoder decoder;
      std::vector<IoRecord> out;
      std::size_t offset = 0;
      while (offset < wire.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.next() % 97, wire.size() - offset);
        ASSERT_TRUE(feed_collect(decoder, wire.data() + offset, chunk, out).ok());
        offset += chunk;
      }
      EXPECT_EQ(decoder.frames_decoded(), counts.size()) << "seed " << seed;
      EXPECT_EQ(decoder.pending_bytes(), 0u);
      EXPECT_EQ(out, expected) << "seed " << seed;
    }
  }
}

TEST(Frame, ReportsPartialTrailingFrame) {
  // A peer that dies mid-frame leaves pending bytes — the signal the daemon
  // uses to tell a torn tail from a clean end-of-stream.
  std::vector<char> wire;
  encode_frame(sample_records(4), wire);
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  ASSERT_TRUE(feed_collect(decoder, wire.data(), wire.size() - 7, out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(decoder.frames_decoded(), 0u);
  EXPECT_GT(decoder.pending_bytes(), 0u);
  // The remainder completes the frame.
  ASSERT_TRUE(feed_collect(decoder, wire.data() + wire.size() - 7, 7, out).ok());
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Frame, RejectsBadMagic) {
  std::vector<char> wire;
  encode_frame(sample_records(1), wire);
  wire[0] = 'X';
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  EXPECT_FALSE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(decoder.status().ok());
  // A poisoned decoder stays poisoned: further bytes are ignored.
  std::vector<char> good;
  encode_frame(sample_records(1), good);
  EXPECT_FALSE(feed_collect(decoder, good.data(), good.size(), out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(Frame, RejectsOversizedCount) {
  FrameHeader header;
  header.record_count = kMaxFrameRecords + 1;
  char raw[sizeof header];
  std::memcpy(raw, &header, sizeof header);
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  EXPECT_FALSE(feed_collect(decoder, raw, sizeof raw, out).ok());
  EXPECT_FALSE(decoder.status().ok());
}

TEST(Frame, RecordOutsideTheTimeRulePoisonsTheStream) {
  // A frame holding one record outside 0 <= start <= end reaches no sink,
  // aligned or not; the frames before it were delivered whole.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::vector<IoRecord> good = sample_records(2);
  for (const IoRecord& bad :
       {make_record(7, 1, SimTime(kMin), SimTime(1000)),
        make_record(7, 1, SimTime(-1), SimTime(5)),
        make_record(7, 1, SimTime(20), SimTime(10))}) {
    std::vector<IoRecord> frame = sample_records(3);
    frame[1] = bad;
    std::vector<char> wire;
    encode_frame(good, wire);
    encode_frame(frame, wire);
    for (const std::size_t offset : {0u, 1u}) {
      SCOPED_TRACE("start " + std::to_string(bad.start_ns) + ", offset " +
                   std::to_string(offset));
      std::vector<char> fed(offset + wire.size());
      std::memcpy(fed.data() + offset, wire.data(), wire.size());
      FrameDecoder decoder;
      std::vector<IoRecord> out;
      EXPECT_FALSE(
          feed_collect(decoder, fed.data() + offset, wire.size(), out).ok());
      EXPECT_EQ(out, good);
      ASSERT_FALSE(decoder.status().ok());
      EXPECT_NE(decoder.status().error().message.find(
                    "frame record 1 has start " +
                    std::to_string(bad.start_ns) + " and end " +
                    std::to_string(bad.end_ns) +
                    ", outside 0 <= start <= end"),
                std::string::npos)
          << decoder.status().to_string();
    }
  }
}

TEST(Frame, MutationAndTruncationNeverCrashTheDecoder) {
  // Adversarial property sweep: a valid multi-frame wire image, randomly
  // truncated and with random bytes flipped, delivered in random chunks.
  // The decoder's contract under hostile input is narrow but absolute —
  // never crash, never over-read, and either keep decoding (corruption in
  // record payloads is invisible to framing) or poison and stay poisoned.
  std::vector<char> wire;
  std::uint32_t pid = 1;
  for (const int count : {3, 0, 8, 1, 5}) {
    encode_frame(sample_records(count, pid++), wire);
  }

  for (const std::uint64_t seed : {7ULL, 99ULL, 31337ULL}) {
    Rng rng(seed);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<char> image(
          wire.begin(),
          wire.begin() + static_cast<std::ptrdiff_t>(
                             rng.next() % (wire.size() + 1)));
      const std::size_t flips = rng.next() % 5;
      for (std::size_t i = 0; i < flips && !image.empty(); ++i) {
        image[rng.next() % image.size()] ^=
            static_cast<char>(1 + rng.next() % 255);
      }

      FrameDecoder decoder;
      std::vector<IoRecord> out;
      bool poisoned = false;
      std::size_t offset = 0;
      while (offset < image.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.next() % 64, image.size() - offset);
        if (!feed_collect(decoder, image.data() + offset, chunk, out).ok()) {
          poisoned = true;
          break;
        }
        offset += chunk;
      }

      if (poisoned) {
        // Poisoned stays poisoned: even pristine bytes are refused and no
        // further records appear.
        EXPECT_FALSE(decoder.status().ok()) << "seed " << seed;
        const std::size_t decoded_before = out.size();
        std::vector<char> good;
        encode_frame(sample_records(2, 99), good);
        EXPECT_FALSE(feed_collect(decoder, good.data(), good.size(), out).ok());
        EXPECT_EQ(out.size(), decoded_before) << "seed " << seed;
      } else {
        // Whatever decoded came from actual wire bytes — a mutated header
        // must never make the decoder fabricate records out of thin air.
        EXPECT_LE(out.size() * sizeof(IoRecord), image.size())
            << "seed " << seed << " trial " << trial;
        EXPECT_TRUE(decoder.status().ok());
      }
    }
  }
}

TEST(Frame, EmitsZeroCopySpansOverAlignedInput) {
  // A frame lying wholly inside the fed buffer with an 8-aligned payload
  // must reach the sink as a window over that very buffer — no copy.
  const std::vector<IoRecord> records = sample_records(6);
  std::vector<char> wire;
  encode_frame(records, wire);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(wire.data() + sizeof(FrameHeader)) %
                alignof(IoRecord),
            0u);

  FrameDecoder decoder;
  const IoRecord* seen = nullptr;
  std::size_t seen_count = 0;
  ASSERT_TRUE(decoder
                  .feed(wire.data(), wire.size(),
                        [&](std::span<const IoRecord> frame) {
                          seen = frame.data();
                          seen_count = frame.size();
                        })
                  .ok());
  EXPECT_EQ(seen_count, records.size());
  EXPECT_EQ(reinterpret_cast<const char*>(seen),
            wire.data() + sizeof(FrameHeader));
}

TEST(Frame, MisalignedPayloadDecodesThroughAlignedScratch) {
  // Feeding from an odd offset makes the in-place reinterpret illegal; the
  // decoder must fall back to its aligned scratch and still emit the exact
  // records.
  const std::vector<IoRecord> records = sample_records(4);
  std::vector<char> wire;
  encode_frame(records, wire);
  std::vector<char> shifted(wire.size() + 1);
  std::memcpy(shifted.data() + 1, wire.data(), wire.size());

  FrameDecoder decoder;
  std::vector<IoRecord> out;
  const char* payload_at = shifted.data() + 1 + sizeof(FrameHeader);
  bool aliased = false;
  ASSERT_TRUE(decoder
                  .feed(shifted.data() + 1, wire.size(),
                        [&](std::span<const IoRecord> frame) {
                          aliased = reinterpret_cast<const char*>(
                                        frame.data()) == payload_at;
                          out.insert(out.end(), frame.begin(), frame.end());
                        })
                  .ok());
  EXPECT_EQ(out, records);
  if (reinterpret_cast<std::uintptr_t>(payload_at) % alignof(IoRecord) != 0) {
    EXPECT_FALSE(aliased);
  }
}

TEST(Frame, SplitFramesEmitFromInternalBufferNotTheInput) {
  // A frame split across feeds cannot alias either input fragment; the
  // decoder reassembles it internally and the records must still be exact.
  const std::vector<IoRecord> records = sample_records(5);
  std::vector<char> wire;
  encode_frame(records, wire);
  const std::size_t cut = wire.size() / 2;

  FrameDecoder decoder;
  std::vector<IoRecord> out;
  const FrameDecoder::FrameSink sink = [&](std::span<const IoRecord> frame) {
    EXPECT_TRUE(reinterpret_cast<const char*>(frame.data()) < wire.data() ||
                reinterpret_cast<const char*>(frame.data()) >=
                    wire.data() + wire.size());
    out.insert(out.end(), frame.begin(), frame.end());
  };
  ASSERT_TRUE(decoder.feed(wire.data(), cut, sink).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(decoder.feed(wire.data() + cut, wire.size() - cut, sink).ok());
  EXPECT_EQ(out, records);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Frame, EmptyFramesNeverInvokeTheSink) {
  std::vector<char> wire;
  encode_frame(std::vector<IoRecord>{}, wire);
  encode_frame(std::vector<IoRecord>{}, wire);
  FrameDecoder decoder;
  std::size_t calls = 0;
  ASSERT_TRUE(decoder
                  .feed(wire.data(), wire.size(),
                        [&](std::span<const IoRecord>) { ++calls; })
                  .ok());
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(decoder.frames_decoded(), 2u);
}

TEST(Frame, InterleavedFramesKeepPerConnectionOrder) {
  // Two decoders model two client connections: each sees its own ordered
  // stream regardless of how the daemon interleaves service between them.
  std::vector<char> wire_a;
  std::vector<char> wire_b;
  encode_frame(sample_records(2, 1), wire_a);
  encode_frame(sample_records(2, 2), wire_b);

  FrameDecoder a, b;
  std::vector<IoRecord> out_a, out_b;
  const std::size_t half_a = wire_a.size() / 2;
  const std::size_t half_b = wire_b.size() / 2;
  ASSERT_TRUE(feed_collect(a, wire_a.data(), half_a, out_a).ok());
  ASSERT_TRUE(feed_collect(b, wire_b.data(), half_b, out_b).ok());
  ASSERT_TRUE(feed_collect(a, wire_a.data() + half_a, wire_a.size() - half_a, out_a).ok());
  ASSERT_TRUE(feed_collect(b, wire_b.data() + half_b, wire_b.size() - half_b, out_b).ok());
  EXPECT_EQ(out_a, sample_records(2, 1));
  EXPECT_EQ(out_b, sample_records(2, 2));
}

Status feed_tagged(FrameDecoder& decoder, const char* data, std::size_t n,
                   std::vector<std::pair<std::uint64_t, IoRecord>>& out) {
  return decoder.feed(
      data, n,
      [&out](std::uint64_t stream, std::span<const IoRecord> frame) {
        for (const IoRecord& r : frame) out.emplace_back(stream, r);
      });
}

TEST(Frame, ValidTenantCharset) {
  EXPECT_TRUE(valid_tenant("web"));
  EXPECT_TRUE(valid_tenant("team-a.prod:eu_1"));
  EXPECT_TRUE(valid_tenant(std::string(kMaxTenantLen, 'x')));
  EXPECT_FALSE(valid_tenant(""));
  EXPECT_FALSE(valid_tenant(std::string(kMaxTenantLen + 1, 'x')));
  EXPECT_FALSE(valid_tenant("has space"));
  EXPECT_FALSE(valid_tenant("slash/y"));
  EXPECT_FALSE(valid_tenant(std::string_view("nul\0", 4)));
}

TEST(Frame, HelloAnnouncesTheTenant) {
  std::vector<char> wire;
  encode_hello("tenant-a", wire);
  // The payload is zero-padded so the NEXT frame's header starts 8-aligned —
  // that keeps data-frame payloads aligned and the zero-copy path alive.
  EXPECT_EQ(wire.size() % 8, 0u);
  const std::vector<IoRecord> records = sample_records(3);
  encode_frame(records, wire);

  FrameDecoder decoder;
  std::vector<IoRecord> out;
  EXPECT_TRUE(decoder.tenant().empty());
  ASSERT_TRUE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_EQ(decoder.tenant(), "tenant-a");
  EXPECT_EQ(out, records);
  EXPECT_EQ(decoder.frames_decoded(), 1u);  // hellos are not data frames
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Frame, HelloKeepsDataPayloadsZeroCopy) {
  // After a hello, an aligned whole-buffer data frame must still alias the
  // fed buffer — the padding exists exactly for this.
  std::vector<char> wire;
  encode_hello("zc", wire);
  const std::size_t data_at = wire.size();
  encode_frame(sample_records(4), wire);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(wire.data() + data_at +
                                             sizeof(FrameHeader)) %
                alignof(IoRecord),
            0u);

  FrameDecoder decoder;
  const char* seen = nullptr;
  ASSERT_TRUE(decoder
                  .feed(wire.data(), wire.size(),
                        [&](std::span<const IoRecord> frame) {
                          seen = reinterpret_cast<const char*>(frame.data());
                        })
                  .ok());
  EXPECT_EQ(seen, wire.data() + data_at + sizeof(FrameHeader));
}

TEST(Frame, TaggedFramesCarryTheirStreamId) {
  const std::vector<IoRecord> a = sample_records(2, 1);
  const std::vector<IoRecord> b = sample_records(3, 2);
  std::vector<char> wire;
  encode_tagged_frame(7, a, wire);
  encode_frame(b, wire);  // untagged frames are stream 0
  encode_tagged_frame(7, a, wire);

  FrameDecoder decoder;
  std::vector<std::pair<std::uint64_t, IoRecord>> out;
  ASSERT_TRUE(feed_tagged(decoder, wire.data(), wire.size(), out).ok());
  ASSERT_EQ(out.size(), a.size() + b.size() + a.size());
  for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out[i].first, 7u);
  for (std::size_t i = 2; i < 5; ++i) EXPECT_EQ(out[i].first, 0u);
  for (std::size_t i = 5; i < 7; ++i) EXPECT_EQ(out[i].first, 7u);
  EXPECT_EQ(decoder.frames_decoded(), 3u);
}

TEST(Frame, UntaggedSinkDiscardsStreamIdsButKeepsRecords) {
  // A receiver that treats the connection as one stream (the agent) still
  // decodes tagged frames — the ids are simply dropped.
  const std::vector<IoRecord> records = sample_records(4);
  std::vector<char> wire;
  encode_tagged_frame(42, records, wire);
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  ASSERT_TRUE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_EQ(out, records);
}

TEST(Frame, HelloAfterDataPoisonsTheStream) {
  std::vector<char> wire;
  encode_frame(sample_records(1), wire);
  encode_hello("late", wire);
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  EXPECT_FALSE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_EQ(out.size(), 1u);  // the data frame before the late hello decoded
  EXPECT_FALSE(decoder.status().ok());
}

TEST(Frame, SecondHelloPoisonsTheStream) {
  std::vector<char> wire;
  encode_hello("one", wire);
  encode_hello("two", wire);
  FrameDecoder decoder;
  std::vector<IoRecord> out;
  EXPECT_FALSE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  EXPECT_EQ(decoder.tenant(), "one");
  EXPECT_FALSE(decoder.status().ok());
}

TEST(Frame, MalformedHelloTenantPoisonsTheStream) {
  // encode_hello refuses bad tenants, so forge the header by hand: a length
  // beyond kMaxTenantLen and an in-range length with an illegal byte.
  {
    std::vector<char> wire(sizeof(FrameHeader));
    FrameHeader h;
    h.magic = kHelloMagic;
    h.record_count = kMaxTenantLen + 1;
    std::memcpy(wire.data(), &h, sizeof h);
    FrameDecoder decoder;
    std::vector<IoRecord> out;
    EXPECT_FALSE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
  }
  {
    std::vector<char> wire;
    encode_hello("goodbad", wire);
    wire[sizeof(FrameHeader) + 4] = ' ';  // illegal tenant byte
    FrameDecoder decoder;
    std::vector<IoRecord> out;
    EXPECT_FALSE(feed_collect(decoder, wire.data(), wire.size(), out).ok());
    EXPECT_TRUE(decoder.tenant().empty());
  }
}

TEST(Frame, HelloAndTaggedSurviveByteAtATimeDelivery) {
  std::vector<char> wire;
  encode_hello("frag.tenant", wire);
  std::vector<std::pair<std::uint64_t, IoRecord>> expected;
  std::uint64_t stream = 1;
  for (const int count : {3, 0, 5, 2}) {
    const std::vector<IoRecord> frame = sample_records(count, 9);
    encode_tagged_frame(stream, frame, wire);
    for (const IoRecord& r : frame) expected.emplace_back(stream, r);
    ++stream;
  }

  FrameDecoder decoder;
  std::vector<std::pair<std::uint64_t, IoRecord>> out;
  for (const char byte : wire) {
    ASSERT_TRUE(feed_tagged(decoder, &byte, 1, out).ok());
  }
  EXPECT_EQ(decoder.tenant(), "frag.tenant");
  EXPECT_EQ(decoder.frames_decoded(), 4u);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace bpsio::trace
