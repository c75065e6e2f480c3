#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/report.hpp"
#include "merge_oracle.hpp"
#include "metrics/calculators.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio {
namespace {

using trace::make_record;

TEST(MergeTraces, RemapsPidsPerSource) {
  std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(1, 10, SimTime(0), SimTime(100))},
      {make_record(1, 20, SimTime(50), SimTime(150))},
  };
  const auto merged = trace::merge_traces(traces);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].pid, 1001u);
  EXPECT_EQ(merged[1].pid, 2001u);
  // Distinct even though both apps used pid 1.
  EXPECT_NE(merged[0].pid, merged[1].pid);
}

TEST(MergeTraces, KeepOriginalPidsWhenStrideZero) {
  std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(7, 10, SimTime(0), SimTime(100))}};
  trace::MergeOptions opts;
  opts.pid_stride = 0;
  EXPECT_EQ(trace::merge_traces(traces, opts)[0].pid, 7u);
}

TEST(MergeTraces, StrideZeroPidCollisionsAreDocumentedBehavior) {
  // pid_stride = 0 opts out of remapping entirely: two applications that
  // both used pid 7 collide, and a per-pid filter then selects the union of
  // the colliding processes. This is by contract (see MergeOptions), not an
  // accident — callers who need separation keep a nonzero stride.
  std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(7, 10, SimTime(0), SimTime(100))},
      {make_record(7, 20, SimTime(200), SimTime(300))},
      {make_record(8, 40, SimTime(400), SimTime(500))},
  };
  trace::MergeOptions opts;
  opts.pid_stride = 0;
  const auto merged = trace::merge_traces(traces, opts);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].pid, 7u);
  EXPECT_EQ(merged[1].pid, 7u);
  EXPECT_EQ(merged[2].pid, 8u);

  trace::TraceCollector collector;
  collector.gather(merged);
  // The two colliding sources are indistinguishable: process_count sees 2
  // pids, and filtering on pid 7 sums blocks across both applications.
  EXPECT_EQ(collector.process_count(), 2u);
  trace::RecordFilter pid7;
  pid7.pid = 7;
  EXPECT_EQ(collector.total_blocks(pid7), 30u);
}

TEST(MergeTraces, SortedByStartTime) {
  std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(1, 1, SimTime(500), SimTime(600)),
       make_record(1, 1, SimTime(100), SimTime(200))},
      {make_record(1, 1, SimTime(300), SimTime(400))},
  };
  const auto merged = trace::merge_traces(traces);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_LT(merged[0].start_ns, merged[1].start_ns);
  EXPECT_LT(merged[1].start_ns, merged[2].start_ns);
}

TEST(MergeTraces, AlignStartsShiftsEachSourceToZero) {
  std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(1, 1, SimTime(1000), SimTime(1100))},
      {make_record(1, 1, SimTime(9000), SimTime(9100))},
  };
  trace::MergeOptions opts;
  opts.alignment = trace::TimeAlignment::align_starts;
  const auto merged = trace::merge_traces(traces, opts);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].start_ns, 0);
  EXPECT_EQ(merged[1].start_ns, 0);
  // Durations preserved.
  EXPECT_EQ(merged[0].end_ns, 100);
}

TEST(MergeTraces, MergedBpsSeesBothApplications) {
  // Two single-app traces, concurrent in real time: merged B doubles while
  // T stays the union.
  std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(1, 100, SimTime(0), SimTime::from_seconds(1.0))},
      {make_record(1, 100, SimTime(0), SimTime::from_seconds(1.0))},
  };
  trace::TraceCollector collector;
  collector.gather(trace::merge_traces(traces));
  EXPECT_DOUBLE_EQ(metrics::bps(collector), 200.0);
  EXPECT_EQ(collector.process_count(), 2u);
}

// ---------------------------------------------------------------------------
// Property: merge_traces, the drained MergedSource, and the stable-sort
// oracle agree record for record.
// ---------------------------------------------------------------------------

/// `sources` unsorted traces of up to 400 records each, starts in
/// [0, time_range), lengths below max_len, a few failed accesses.
std::vector<std::vector<trace::IoRecord>> random_traces(
    Rng& rng, std::size_t sources, std::uint64_t time_range,
    std::uint64_t max_len) {
  std::vector<std::vector<trace::IoRecord>> traces(sources);
  for (auto& t : traces) {
    const std::size_t n = rng.uniform_u64(400);
    for (std::size_t i = 0; i < n; ++i) {
      trace::IoRecord r;
      r.pid = static_cast<std::uint32_t>(rng.uniform_u64(5));
      r.blocks = rng.uniform_u64(1000);
      r.start_ns = static_cast<std::int64_t>(rng.uniform_u64(time_range));
      r.end_ns =
          r.start_ns + static_cast<std::int64_t>(rng.uniform_u64(max_len));
      if (rng.uniform() < 0.05) r.flags = trace::kIoFailed;
      t.push_back(r);
    }
  }
  return traces;
}

/// The MergedSource over the traces, with small chunks on both sides so
/// chunk boundaries fall inside runs of equal keys, drained to a vector.
std::vector<trace::IoRecord> drain_merged_source(
    const std::vector<std::vector<trace::IoRecord>>& traces,
    const trace::MergeOptions& opts, std::size_t chunk) {
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  for (const auto& t : traces) {
    children.push_back(std::make_unique<trace::VectorSource>(
        trace::VectorSource::sorted(t, chunk)));
  }
  trace::MergedSource merged(std::move(children), opts, chunk + 2);
  std::vector<trace::IoRecord> out;
  for (auto c = merged.next_chunk(); !c.empty(); c = merged.next_chunk()) {
    out.insert(out.end(), c.begin(), c.end());
  }
  EXPECT_TRUE(merged.status().ok());
  return out;
}

class MergeTracesProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeTracesProperty, EqualsMergedSourceAndStableSortOracle) {
  Rng rng(GetParam() ^ 0xfeedULL);
  const std::size_t sources = 1 + rng.uniform_u64(6);
  // Spread out (ties rare) and dense (runs of equal keys across sources).
  for (const auto& traces : {random_traces(rng, sources, 100'000, 500),
                             random_traces(rng, sources, 300, 20)}) {
    for (trace::TimeAlignment align :
         {trace::TimeAlignment::keep, trace::TimeAlignment::align_starts}) {
      for (std::uint32_t stride : {0u, 1000u}) {
        SCOPED_TRACE("align=" + std::to_string(static_cast<int>(align)) +
                     " stride=" + std::to_string(stride));
        trace::MergeOptions opts;
        opts.alignment = align;
        opts.pid_stride = stride;
        const auto merged = trace::merge_traces(traces, opts);
        EXPECT_EQ(merged, trace::merge_oracle(traces, opts));
        EXPECT_EQ(merged,
                  drain_merged_source(traces, opts, 1 + GetParam() % 7));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MergeTracesProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

/// A scratch path of this process's own under /tmp.
std::string temp_path(const std::string& name) {
  return "/tmp/bpsio_merge_files_" + std::to_string(::getpid()) + "_" + name +
         ".bpstrace";
}

std::string write_trace(const std::string& name,
                        const std::vector<trace::IoRecord>& records) {
  const std::string path = temp_path(name);
  trace::SpillWriter writer(path, /*batch_records=*/3);
  writer.append(std::span<const trace::IoRecord>(records));
  EXPECT_TRUE(writer.close().ok());
  return path;
}

TEST(MergeTraceFiles, MatchesMergeTracesInTheCallersOrder) {
  // Ordered inputs with ties across files and pids that collide, so that
  // the file order, the pid remap and the alignment all show in the bytes.
  const std::vector<std::vector<trace::IoRecord>> traces{
      {make_record(1, 1, SimTime(100), SimTime(200)),
       make_record(2, 2, SimTime(100), SimTime(300)),
       make_record(1, 3, SimTime(400), SimTime(450))},
      {make_record(1, 4, SimTime(100), SimTime(200)),
       make_record(3, 5, SimTime(250), SimTime(260))},
      {make_record(2, 6, SimTime(50), SimTime(200)),
       make_record(1, 7, SimTime(100), SimTime(200))}};
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    paths.push_back(write_trace("in" + std::to_string(i), traces[i]));
  }
  trace::MergeOptions aligned;
  aligned.alignment = trace::TimeAlignment::align_starts;
  const std::string out = temp_path("out");
  for (const std::vector<std::size_t>& order :
       {std::vector<std::size_t>{0, 1, 2}, std::vector<std::size_t>{2, 0, 1}}) {
    std::vector<std::string> ordered_paths;
    std::vector<std::vector<trace::IoRecord>> ordered_traces;
    for (const std::size_t i : order) {
      ordered_paths.push_back(paths[i]);
      ordered_traces.push_back(traces[i]);
    }
    // Without options, the drain's merge.
    ASSERT_TRUE(trace::merge_trace_files(ordered_paths, out).ok());
    auto merged = trace::load_binary(out);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(*merged, trace::merge_traces(ordered_traces, trace::kDrainMerge));
    for (const trace::MergeOptions& options : {trace::MergeOptions{}, aligned}) {
      ASSERT_TRUE(trace::merge_trace_files(ordered_paths, out, options).ok());
      merged = trace::load_binary(out);
      ASSERT_TRUE(merged.ok());
      EXPECT_EQ(*merged, trace::merge_traces(ordered_traces, options));
    }
  }
  for (const std::string& path : paths) std::remove(path.c_str());
  std::remove(out.c_str());
}

TEST(MergeTraceFiles, AnUnorderedInputFailsAndLeavesNoOutput) {
  const std::string ordered =
      write_trace("ordered", {make_record(1, 1, SimTime(10), SimTime(20)),
                              make_record(1, 1, SimTime(500), SimTime(900))});
  // A later start first, then the same start with an earlier end: each
  // inversion alone must fail the merge, wherever its file sits.
  const std::vector<std::vector<trace::IoRecord>> unordered{
      {make_record(2, 1, SimTime(300), SimTime(400)),
       make_record(2, 1, SimTime(100), SimTime(150))},
      {make_record(2, 1, SimTime(300), SimTime(400)),
       make_record(2, 1, SimTime(300), SimTime(350))}};
  const std::string out = temp_path("unordered_out");
  for (std::size_t i = 0; i < unordered.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const std::string bad = write_trace("bad", unordered[i]);
    for (const std::vector<std::string>& paths :
         {std::vector<std::string>{bad}, std::vector<std::string>{ordered, bad},
          std::vector<std::string>{bad, ordered}}) {
      const Status merged = trace::merge_trace_files(paths, out);
      ASSERT_FALSE(merged.ok());
      EXPECT_EQ(merged.error().code, Errc::invalid_argument);
      EXPECT_NE(merged.error().message.find("not in (start, end) order"),
                std::string::npos)
          << merged.error().message;
      EXPECT_FALSE(std::filesystem::exists(out));
    }
    std::remove(bad.c_str());
  }
  std::remove(ordered.c_str());
}

TEST(MergeTraceFiles, AFailedMergeRemovesOnlyARegularOutput) {
  // /dev/full takes the open and refuses the bytes, so the merge fails at
  // close. A symlink to it, named as the output, is not the merge's to
  // remove, nor is the device behind it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string in =
      write_trace("full_in", {make_record(1, 1, SimTime(10), SimTime(20))});
  const std::string link = temp_path("full_link");
  std::filesystem::remove(link);
  std::filesystem::create_symlink("/dev/full", link);
  const Status merged = trace::merge_trace_files({in}, link);
  EXPECT_FALSE(merged.ok());
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
  std::remove(link.c_str());
  std::remove(in.c_str());
}

TEST(MergeTraceFiles, RefusesAnOutputThatIsAnInput) {
  const std::vector<trace::IoRecord> records{
      make_record(1, 1, SimTime(10), SimTime(20))};
  const std::string a = write_trace("a", records);
  const std::string b = write_trace("b", records);
  const Status merged = trace::merge_trace_files({a, b}, b);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code, Errc::invalid_argument);
  EXPECT_EQ(merged.error().message, "merge output " + b + " is also an input");
  const auto kept = trace::load_binary(b);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, records);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Report, MarkdownContainsTablesAndVerdicts) {
  core::SweepResult sweep;
  sweep.labels = {"a", "b", "c", "d"};
  for (double t : {1.0, 2.0, 4.0, 8.0}) {
    metrics::MetricSample s;
    s.exec_time_s = t;
    s.iops = 100 * t;  // misleading on purpose
    s.bandwidth_bps = 1e6 / t;
    s.arpt_s = t / 100;
    s.bps = 1000 / t;
    sweep.samples.push_back(s);
  }
  sweep.report = metrics::correlate(sweep.samples);

  core::ReportOptions opts;
  opts.title = "Demo sweep";
  opts.paper_expectation = "IOPS flips";
  const auto md = core::to_markdown(sweep, opts);
  EXPECT_NE(md.find("### Demo sweep"), std::string::npos);
  EXPECT_NE(md.find("*Paper expectation:* IOPS flips"), std::string::npos);
  EXPECT_NE(md.find("| a |"), std::string::npos);
  EXPECT_NE(md.find("**WRONG**"), std::string::npos);  // IOPS verdict
  EXPECT_NE(md.find("| BPS |"), std::string::npos);
  EXPECT_NE(md.find("95% CI"), std::string::npos);
}

TEST(Report, OmitsOptionalSections) {
  core::SweepResult sweep;
  metrics::MetricSample s;
  s.exec_time_s = 1;
  sweep.samples = {s, s};
  sweep.labels = {"x", "y"};
  sweep.report = metrics::correlate(sweep.samples);
  core::ReportOptions opts;
  opts.include_samples = false;
  opts.include_confidence = false;
  const auto md = core::to_markdown(sweep, opts);
  EXPECT_EQ(md.find("exec (s)"), std::string::npos);
  EXPECT_EQ(md.find("95% CI"), std::string::npos);
}

}  // namespace
}  // namespace bpsio
