#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "merge_oracle.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio {
namespace {

using trace::IoRecord;
using trace::make_record;

std::vector<IoRecord> drain(trace::RecordSource& source) {
  std::vector<IoRecord> all;
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

// A small overlapping workload with duplicate (start, end) keys, multiple
// pids, and a zero-length access.
std::vector<IoRecord> sample_trace() {
  std::vector<IoRecord> t;
  t.push_back(make_record(1, 4, SimTime(0), SimTime(100)));
  t.push_back(make_record(2, 2, SimTime(50), SimTime(150)));
  t.push_back(make_record(1, 1, SimTime(50), SimTime(150)));  // duplicate key
  t.push_back(make_record(3, 8, SimTime(120), SimTime(120)));  // zero-length
  t.push_back(make_record(2, 3, SimTime(200), SimTime(260)));
  return t;
}

TEST(VectorSource, ViewChunksWithoutCopying) {
  const auto records = sample_trace();
  auto source = trace::VectorSource::view(records, /*chunk_records=*/2);
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), records.size());

  auto first = source.next_chunk();
  ASSERT_EQ(first.size(), 2u);
  // Zero-copy: the chunk aliases the caller's storage.
  EXPECT_EQ(first.data(), records.data());

  std::vector<IoRecord> all(first.begin(), first.end());
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    EXPECT_LE(chunk.size(), 2u);
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(all, records);
  // Exhausted sources stay exhausted.
  EXPECT_TRUE(source.next_chunk().empty());
  EXPECT_TRUE(source.status().ok());
}

TEST(VectorSource, SortedOrdersByStartThenEnd) {
  std::vector<IoRecord> shuffled;
  shuffled.push_back(make_record(1, 1, SimTime(200), SimTime(210)));
  shuffled.push_back(make_record(1, 1, SimTime(0), SimTime(300)));
  shuffled.push_back(make_record(1, 1, SimTime(0), SimTime(100)));
  auto source = trace::VectorSource::sorted(shuffled, /*chunk_records=*/10);
  const auto all = drain(source);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].end_ns, 100);
  EXPECT_EQ(all[1].end_ns, 300);
  EXPECT_EQ(all[2].start_ns, 200);
}

TEST(VectorSource, EmptySourceYieldsNothing) {
  auto source = trace::VectorSource::sorted({});
  EXPECT_TRUE(source.next_chunk().empty());
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), 0u);
}

TEST(OrderCheck, NamesTheFirstInversionAcrossChunks) {
  // An equal start with an earlier end breaks the order too; the index
  // counts from the stream's first record, across chunks.
  const std::vector<IoRecord> first{
      make_record(1, 1, SimTime(0), SimTime(5)),
      make_record(1, 1, SimTime(10), SimTime(20))};
  const std::vector<IoRecord> second{
      make_record(2, 1, SimTime(10), SimTime(20)),
      make_record(2, 1, SimTime(10), SimTime(15))};
  trace::OrderCheck order;
  EXPECT_TRUE(order.check(first).ok());
  const Status checked = order.check(second);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.error().code, Errc::invalid_argument);
  EXPECT_EQ(checked.error().message,
            "unordered at record #3: (start 10, end 15) after (start 10, end "
            "20)");
}

TEST(CollectorSource, FiltersAndSorts) {
  trace::TraceCollector c;
  c.add(make_record(2, 2, SimTime(500), SimTime(600)));
  c.add(make_record(1, 1, SimTime(0), SimTime(100)));
  c.add(make_record(2, 4, SimTime(100), SimTime(200)));
  trace::RecordFilter f;
  f.pid = 2;
  auto source = trace::collector_source(c, f);
  const auto all = drain(source);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].start_ns, 100);
  EXPECT_EQ(all[1].start_ns, 500);
}

// ---------------------------------------------------------------------------
// Trace files (open_trace_source)
// ---------------------------------------------------------------------------

std::vector<IoRecord> ordered_records(std::size_t n) {
  std::vector<IoRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::int64_t>(i) * 10;
    records.push_back(make_record(static_cast<std::uint32_t>(i % 5), i % 7 + 1,
                                  SimTime(s), SimTime(s + 25)));
  }
  return records;
}

std::string write_spill(const std::string& path,
                        const std::vector<IoRecord>& records) {
  trace::SpillWriter writer(path, /*batch_records=*/16);
  for (const auto& r : records) writer.append(r);
  EXPECT_TRUE(writer.close().ok());
  return path;
}

TEST(TraceFileSource, StreamsExactlyTheFileContents) {
  const auto records = ordered_records(100);
  const std::string path =
      write_spill("/tmp/bpsio_src_stream.bpstrace", records);
  const auto source = trace::open_trace_source(path, /*chunk_records=*/7);
  ASSERT_TRUE(source->status().ok());
  ASSERT_TRUE(source->size_hint().has_value());
  EXPECT_EQ(*source->size_hint(), 100u);
  EXPECT_EQ(drain(*source), records);
  EXPECT_TRUE(source->status().ok());
  std::remove(path.c_str());
}

TEST(TraceFileSource, ChunkBoundaryCounts) {
  // Record counts at chunk-1 / chunk / chunk+1 / 2*chunk stream exactly.
  constexpr std::size_t kChunk = 8;
  for (const std::size_t n : {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk}) {
    const auto records = ordered_records(n);
    const std::string path = write_spill(
        "/tmp/bpsio_src_boundary_" + std::to_string(n) + ".bpstrace", records);
    const auto source = trace::open_trace_source(path, kChunk);
    EXPECT_EQ(drain(*source), records) << "n=" << n;
    EXPECT_TRUE(source->status().ok()) << "n=" << n;
    std::remove(path.c_str());
  }
}

TEST(TraceFileSource, MissingFileFailsUpFront) {
  const auto source =
      trace::open_trace_source("/tmp/bpsio_no_such_trace.bpstrace");
  EXPECT_FALSE(source->status().ok());
  EXPECT_TRUE(source->next_chunk().empty());
  EXPECT_FALSE(source->size_hint().has_value());
}

TEST(TraceFileSource, TruncatedFileSurfacesTheLoaderError) {
  const auto records = ordered_records(40);
  const std::string path =
      write_spill("/tmp/bpsio_src_trunc.bpstrace", records);
  // Chop the last 1.5 records off the file.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto full = static_cast<std::size_t>(in.tellg());
    std::vector<char> bytes(full - sizeof(IoRecord) - sizeof(IoRecord) / 2);
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto source = trace::open_trace_source(path, /*chunk_records=*/16);
  ASSERT_TRUE(source->status().ok());  // header still intact
  while (!source->next_chunk().empty()) {
  }
  EXPECT_FALSE(source->status().ok());
  EXPECT_NE(source->status().error().message.find("trace truncated"),
            std::string::npos)
      << source->status().error().message;
  // The streamed error matches the whole-file loader's verdict.
  const auto loaded = trace::load_binary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().message, source->status().error().message);
  std::remove(path.c_str());
}

TEST(SpillWriter, CloseReportsAFileThatNeverOpened) {
  trace::SpillWriter writer("/nonexistent-dir/x.bpstrace");
  EXPECT_FALSE(writer.ok());
  writer.append(make_record(1, 1, SimTime(0), SimTime(1)));
  EXPECT_FALSE(writer.close().ok());
}

// ---------------------------------------------------------------------------
// MergedSource
// ---------------------------------------------------------------------------

std::vector<std::vector<IoRecord>> three_traces() {
  std::vector<std::vector<IoRecord>> traces(3);
  // Unsorted inputs with cross-trace ties on (start, end).
  traces[0].push_back(make_record(7, 1, SimTime(300), SimTime(400)));
  traces[0].push_back(make_record(7, 2, SimTime(0), SimTime(100)));
  traces[1].push_back(make_record(7, 3, SimTime(0), SimTime(100)));  // tie
  traces[1].push_back(make_record(8, 4, SimTime(150), SimTime(250)));
  traces[2].push_back(make_record(9, 5, SimTime(50), SimTime(60)));
  traces[2].push_back(make_record(9, 6, SimTime(300), SimTime(400)));  // tie
  return traces;
}

/// A MergedSource over each trace stable-sorted in memory.
trace::MergedSource merged_source(
    const std::vector<std::vector<IoRecord>>& traces,
    const trace::MergeOptions& options,
    std::size_t child_chunk = trace::kDefaultSourceChunk,
    std::size_t chunk = trace::kDefaultSourceChunk) {
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  for (const auto& t : traces) {
    children.push_back(std::make_unique<trace::VectorSource>(
        trace::VectorSource::sorted(t, child_chunk)));
  }
  return trace::MergedSource(std::move(children), options, chunk);
}

void expect_same_sequence(const trace::MergeOptions& options) {
  const auto traces = three_traces();
  const auto expected = trace::merge_oracle(traces, options);
  auto source = merged_source(traces, options);
  std::vector<IoRecord> streamed;
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    EXPECT_LE(chunk.size(), trace::kDefaultSourceChunk);
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(source.status().ok());
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), expected.size());
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(trace::merge_traces(traces, options), expected);
}

TEST(MergedSource, MatchesBatchMergeRecordForRecord) {
  expect_same_sequence(trace::MergeOptions{});
}

TEST(MergedSource, MatchesBatchMergeWithAlignedStarts) {
  trace::MergeOptions options;
  options.alignment = trace::TimeAlignment::align_starts;
  expect_same_sequence(options);
}

TEST(MergedSource, MatchesBatchMergeWithoutPidRemap) {
  trace::MergeOptions options;
  options.pid_stride = 0;
  expect_same_sequence(options);
}

TEST(MergedSource, SmallChunksPreserveTheSequence) {
  const auto traces = three_traces();
  auto source = merged_source(traces, trace::MergeOptions{},
                              /*child_chunk=*/1, /*chunk=*/2);
  EXPECT_EQ(drain(source), trace::merge_oracle(traces, trace::MergeOptions{}));
}

TEST(MergedSource, NoChildrenIsEmpty) {
  trace::MergedSource source({});
  EXPECT_TRUE(source.next_chunk().empty());
  EXPECT_TRUE(source.status().ok());
}

TEST(MergedSource, PidRemapPastUint32FailsTheStream) {
  // Eight sources of pid 999 at stride 536870911: source 8's base is
  // 8 * 536870911 = 4294967288, so its pid 999 would wrap to 991.
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  std::vector<std::vector<IoRecord>> traces(
      8, {make_record(999, 1, SimTime(0), SimTime(10))});
  for (const auto& t : traces) {
    children.push_back(
        std::make_unique<trace::VectorSource>(trace::VectorSource::view(t)));
  }
  trace::MergeOptions options;
  options.pid_stride = 536870911;
  trace::MergedSource merged(std::move(children), options);
  const auto all = drain(merged);
  ASSERT_FALSE(merged.status().ok());
  EXPECT_EQ(merged.status().error().code, Errc::out_of_range);
  EXPECT_EQ(merged.status().error().message,
            "pid stride 536870911 remaps pid 999 of source 8 past 4294967295");
  // Sources 1-7 come through with their exact remapped pids.
  std::vector<std::uint32_t> pids;
  for (const IoRecord& r : all) pids.push_back(r.pid);
  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 1; i <= 7; ++i) want.push_back(i * 536870911 + 999);
  EXPECT_EQ(pids, want);

  // The largest pid that fits lands exactly on UINT32_MAX; one more fails.
  for (const std::uint32_t pid : {999u, 1000u}) {
    const std::vector<IoRecord> one{make_record(pid, 1, SimTime(0), SimTime(1))};
    std::vector<std::unique_ptr<trace::RecordSource>> child;
    child.push_back(
        std::make_unique<trace::VectorSource>(trace::VectorSource::view(one)));
    trace::MergeOptions edge;
    edge.pid_stride = UINT32_MAX - 999;
    trace::MergedSource source(std::move(child), edge);
    const auto out = drain(source);
    if (pid == 999) {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].pid, UINT32_MAX);
      EXPECT_TRUE(source.status().ok());
    } else {
      EXPECT_TRUE(out.empty());
      EXPECT_EQ(source.status().code(), Errc::out_of_range);
    }
  }
}

TEST(MergedSource, ChildFailureTruncatesAndReports) {
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  children.push_back(
      trace::open_trace_source("/tmp/bpsio_no_such_child.bpstrace"));
  trace::MergedSource source(std::move(children));
  EXPECT_TRUE(source.next_chunk().empty());
  EXPECT_FALSE(source.status().ok());
}

// Serves its ordered records in chunks of `chunk` records, then fails after
// `good_chunks` of them: the stream ends and status() reports an I/O error.
// Its size is unknown, as a pipe's would be.
class FailingSource final : public trace::RecordSource {
 public:
  FailingSource(std::vector<IoRecord> records, std::size_t chunk,
                std::size_t good_chunks)
      : records_(std::move(records)), chunk_(chunk), left_(good_chunks) {}

  std::span<const IoRecord> next_chunk() override {
    if (left_ == 0 || pos_ == records_.size()) {
      status_ = Status{Errc::io_error, "child failed mid-stream"};
      return {};
    }
    --left_;
    const std::size_t take = std::min(chunk_, records_.size() - pos_);
    const std::span<const IoRecord> out(records_.data() + pos_, take);
    pos_ += take;
    return out;
  }
  Status status() const override { return status_; }

  /// The records it serves before failing.
  static std::vector<IoRecord> served(std::vector<IoRecord> records,
                                      std::size_t chunk,
                                      std::size_t good_chunks) {
    records.resize(std::min(records.size(), chunk * good_chunks));
    return records;
  }

 private:
  std::vector<IoRecord> records_;
  std::size_t chunk_;
  std::size_t left_;
  std::size_t pos_ = 0;
  Status status_;
};

/// `count` (start, end)-ordered records on a coarse clock, so equal keys
/// recur within and across children; `blocks` tags each record with its
/// child and position so any reordering shows. About one child in six
/// ends in records at (INT64_MAX, INT64_MAX).
std::vector<IoRecord> tagged_child(Rng& rng, std::size_t child,
                                   std::size_t count) {
  std::vector<IoRecord> records;
  std::int64_t t = static_cast<std::int64_t>(rng.next() % 8);
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<std::int64_t>(rng.next() % 3);
    const auto len = static_cast<std::int64_t>(rng.next() % 4);
    records.push_back(make_record(static_cast<std::uint32_t>(rng.next() % 5),
                                  child * 100000 + i, SimTime(t),
                                  SimTime(t + len)));
  }
  if (rng.next() % 6 == 0) {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < 2; ++i) {
      records.push_back(make_record(3, child * 100000 + count + i,
                                    SimTime(kMax), SimTime(kMax)));
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const IoRecord& a, const IoRecord& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.end_ns < b.end_ns;
                   });
  return records;
}

TEST(MergedSourceProperty, MatchesTheMergeOracle) {
  constexpr std::size_t kDefault = trace::kDefaultSourceChunk;
  trace::MergeOptions remap;  // stride 1000, timestamps kept
  trace::MergeOptions plain;
  plain.pid_stride = 0;
  trace::MergeOptions aligned;
  aligned.alignment = trace::TimeAlignment::align_starts;
  std::uint64_t seed = 0;
  for (const std::size_t k : {1u, 2u, 3u, 5u, 16u, 17u, 33u, 64u}) {
    for (const std::size_t child_chunk : {std::size_t{1}, std::size_t{7}, kDefault}) {
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, kDefault}) {
        for (const trace::MergeOptions& options : {remap, plain, aligned}) {
          ++seed;
          SCOPED_TRACE("k " + std::to_string(k) + ", child chunk " +
                       std::to_string(child_chunk) + ", chunk " +
                       std::to_string(chunk) + ", seed " +
                       std::to_string(seed));
          Rng rng(seed);
          // One child in five is empty; the rest hold up to 60 records,
          // so children run dry at every point of an output chunk. On odd
          // seeds one child (k > 1) fails after a chunk or two.
          const std::size_t failing =
              k > 1 && seed % 2 == 1 ? rng.next() % k : k;
          std::vector<std::vector<IoRecord>> expected_traces;
          std::vector<std::unique_ptr<trace::RecordSource>> children;
          std::uint64_t total = 0;
          for (std::size_t c = 0; c < k; ++c) {
            const std::size_t count =
                rng.next() % 5 == 0 ? 0 : 1 + rng.next() % 60;
            auto records = tagged_child(rng, c, count);
            if (c == failing) {
              const std::size_t good = 1 + rng.next() % 2;
              const std::size_t fail_chunk =
                  std::min<std::size_t>(child_chunk, 13);
              expected_traces.push_back(
                  FailingSource::served(records, fail_chunk, good));
              children.push_back(std::make_unique<FailingSource>(
                  std::move(records), fail_chunk, good));
              continue;
            }
            total += records.size();
            expected_traces.push_back(records);
            children.push_back(std::make_unique<trace::VectorSource>(
                trace::VectorSource::sorted(std::move(records), child_chunk)));
          }
          trace::MergedSource merged(std::move(children), options, chunk);
          if (failing == k) {
            ASSERT_TRUE(merged.size_hint().has_value());
            EXPECT_EQ(*merged.size_hint(), total);
          } else {
            EXPECT_FALSE(merged.size_hint().has_value());
          }
          std::vector<IoRecord> streamed;
          for (auto out = merged.next_chunk(); !out.empty();
               out = merged.next_chunk()) {
            EXPECT_LE(out.size(), std::max(chunk, child_chunk));
            streamed.insert(streamed.end(), out.begin(), out.end());
          }
          EXPECT_TRUE(merged.next_chunk().empty());
          EXPECT_EQ(streamed, trace::merge_oracle(expected_traces, options));
          if (failing == k) {
            EXPECT_TRUE(merged.status().ok());
          } else {
            EXPECT_EQ(merged.status().code(), Errc::io_error);
          }
        }
      }
    }
  }
}

TEST(MergedSourceProperty, EqualKeysComeInChildOrder) {
  // Every child holds the same (start, end) keys, so only the tie rule
  // orders the stream: by child index, then in each child's own order.
  trace::MergeOptions plain;
  plain.pid_stride = 0;
  for (const std::size_t k : {2u, 3u, 16u, 33u}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    trace::kDefaultSourceChunk}) {
      SCOPED_TRACE("k " + std::to_string(k) + ", chunk " +
                   std::to_string(chunk));
      std::vector<std::vector<IoRecord>> traces(k);
      std::vector<std::unique_ptr<trace::RecordSource>> children;
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t i = 0; i < 40; ++i) {
          const auto s = static_cast<std::int64_t>(i / 10);
          traces[c].push_back(make_record(1, c * 1000 + i, SimTime(s),
                                          SimTime(s + 5)));
        }
        children.push_back(std::make_unique<trace::VectorSource>(
            trace::VectorSource::view(traces[c], 3)));
      }
      trace::MergedSource merged(std::move(children), plain, chunk);
      EXPECT_EQ(drain(merged), trace::merge_oracle(traces, plain));
      EXPECT_TRUE(merged.status().ok());
    }
  }
}

TEST(MergedSource, SoleLiveChildPassesItsSpanThrough) {
  const auto records = ordered_records(50);
  const std::vector<IoRecord> none;
  trace::MergeOptions plain;
  plain.pid_stride = 0;
  for (const std::size_t k : {1u, 4u}) {
    SCOPED_TRACE("k " + std::to_string(k));
    // Child 1 of k holds every record; the others are empty.
    std::vector<std::unique_ptr<trace::RecordSource>> children;
    for (std::size_t c = 0; c < k; ++c) {
      children.push_back(std::make_unique<trace::VectorSource>(
          trace::VectorSource::view(c == k / 2 ? records : none, 16)));
    }
    trace::MergedSource merged(std::move(children), plain, /*chunk=*/4);
    for (std::size_t at = 0; at < records.size(); at += 16) {
      const auto out = merged.next_chunk();
      ASSERT_EQ(out.size(), std::min<std::size_t>(16, records.size() - at));
      EXPECT_EQ(out.data(), records.data() + at);
    }
    EXPECT_TRUE(merged.next_chunk().empty());
    EXPECT_TRUE(merged.status().ok());
  }
}

TEST(MergedSource, ChildrenDisjointInTimePassTheirSpansThrough) {
  // As the spools of sequential connections are: each child's records all
  // precede the next child's (or, reversed, follow them), so no record is
  // copied and every output span aliases a child's storage.
  trace::MergeOptions plain;
  plain.pid_stride = 0;
  for (const std::size_t k : {2u, 3u, 16u}) {
    for (const bool reversed : {false, true}) {
      SCOPED_TRACE("k " + std::to_string(k) +
                   (reversed ? ", reversed" : ""));
      std::vector<std::vector<IoRecord>> traces(k);
      std::vector<std::unique_ptr<trace::RecordSource>> children;
      for (std::size_t c = 0; c < k; ++c) {
        const auto base =
            static_cast<std::int64_t>(reversed ? k - 1 - c : c) * 1000;
        for (std::size_t i = 0; i < 20; ++i) {
          const auto s = base + static_cast<std::int64_t>(i) * 10;
          traces[c].push_back(make_record(static_cast<std::uint32_t>(c),
                                          i + 1, SimTime(s), SimTime(s + 25)));
        }
        children.push_back(std::make_unique<trace::VectorSource>(
            trace::VectorSource::view(traces[c], 7)));
      }
      trace::MergedSource merged(std::move(children), plain, /*chunk=*/4);
      std::vector<IoRecord> streamed;
      for (auto out = merged.next_chunk(); !out.empty();
           out = merged.next_chunk()) {
        EXPECT_LE(out.size(), 7u);
        const std::less_equal<const IoRecord*> le;
        EXPECT_TRUE(std::any_of(traces.begin(), traces.end(),
                                [&](const std::vector<IoRecord>& t) {
                                  return le(t.data(), out.data()) &&
                                         le(out.data() + out.size(),
                                            t.data() + t.size());
                                }))
            << "a span of " << out.size() << " records was copied";
        streamed.insert(streamed.end(), out.begin(), out.end());
      }
      EXPECT_EQ(streamed, trace::merge_oracle(traces, plain));
      EXPECT_TRUE(merged.status().ok());
    }
  }
}

}  // namespace
}  // namespace bpsio
