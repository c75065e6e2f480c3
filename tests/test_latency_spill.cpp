#include <gtest/gtest.h>

#include <cstdio>

#include "trace/io_record.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio {
namespace {

using trace::make_record;

TEST(SpillWriter, RoundTripsThroughTheStandardFormat) {
  const std::string path = "/tmp/bpsio_spill_test.bpstrace";
  std::vector<trace::IoRecord> expected;
  {
    trace::SpillWriter writer(path, /*batch_records=*/16);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 100; ++i) {
      const auto r = make_record(static_cast<std::uint32_t>(i % 3),
                                 static_cast<std::uint64_t>(i + 1),
                                 SimTime(i * 10), SimTime(i * 10 + 5));
      expected.push_back(r);
      writer.append(r);
      // Batch never exceeds its bound.
      EXPECT_LE(writer.resident_records(), 16u);
    }
    EXPECT_EQ(writer.records_written(), 100u);
    EXPECT_TRUE(writer.close().ok());
  }
  const auto loaded = trace::load_binary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, expected);
  std::remove(path.c_str());
}

TEST(SpillWriter, BatchBoundaryCounts) {
  // records == batch, batch - 1, and batch + 1 all round-trip exactly; the
  // == case must spill precisely once and leave the batch empty.
  constexpr std::size_t kBatch = 32;
  for (const std::size_t count : {kBatch - 1, kBatch, kBatch + 1}) {
    const std::string path = "/tmp/bpsio_spill_boundary_" +
                             std::to_string(count) + ".bpstrace";
    std::vector<trace::IoRecord> expected;
    {
      trace::SpillWriter writer(path, kBatch);
      ASSERT_TRUE(writer.ok());
      for (std::size_t i = 0; i < count; ++i) {
        const auto r = make_record(
            static_cast<std::uint32_t>(i), i + 1,
            SimTime(static_cast<std::int64_t>(i) * 10),
            SimTime(static_cast<std::int64_t>(i) * 10 + 7));
        expected.push_back(r);
        writer.append(r);
      }
      // Exactly at the boundary the batch has just spilled; one past it a
      // fresh batch holds the single overflow record.
      if (count == kBatch) {
        EXPECT_EQ(writer.resident_records(), 0u);
      } else if (count == kBatch + 1) {
        EXPECT_EQ(writer.resident_records(), 1u);
      } else {
        EXPECT_EQ(writer.resident_records(), count);
      }
      EXPECT_EQ(writer.records_written(), count);
      EXPECT_TRUE(writer.close().ok());
    }
    const auto loaded = trace::load_binary(path);
    ASSERT_TRUE(loaded.ok()) << "count=" << count;
    EXPECT_EQ(*loaded, expected) << "count=" << count;
    std::remove(path.c_str());
  }
}

TEST(SpillWriter, DestructorFinalizesTheFile) {
  const std::string path = "/tmp/bpsio_spill_dtor.bpstrace";
  {
    trace::SpillWriter writer(path, 8);
    for (int i = 0; i < 5; ++i) {
      writer.append(make_record(1, 1, SimTime(i), SimTime(i + 1)));
    }
    // No explicit close.
  }
  const auto loaded = trace::load_binary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 5u);
  std::remove(path.c_str());
}

TEST(SpillWriter, EmptyTraceIsValid) {
  const std::string path = "/tmp/bpsio_spill_empty.bpstrace";
  {
    trace::SpillWriter writer(path);
    EXPECT_TRUE(writer.close().ok());
  }
  const auto loaded = trace::load_binary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(SpillWriter, UnwritablePathReportsFailure) {
  trace::SpillWriter writer("/nonexistent-dir/x.bpstrace");
  EXPECT_FALSE(writer.ok());
  writer.append(make_record(1, 1, SimTime(0), SimTime(1)));
  EXPECT_FALSE(writer.flush().ok());
  EXPECT_FALSE(writer.close().ok());
}

}  // namespace
}  // namespace bpsio
