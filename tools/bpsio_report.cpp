// bpsio_report — BPS analysis of captured .bpstrace files.
//
// The read side of the real-I/O capture subsystem: point it at the
// BPSIO_CAPTURE_DIR a traced run filled (or at individual trace files) and
// it k-way merges the per-thread traces with MergedSource, streams the
// merged sequence through measure_stream(), and prints the paper's metrics:
//
//   B     application-required blocks (Section III.A — requested blocks,
//         failed and short I/O included)
//   T     overlapped I/O time (Figure 3 union measure)
//   BPS   B / T
//   IOPS  accesses / period
//   BW    application bytes / period. NOTE: real traces carry no FS-level
//         moved-byte counters, so unlike the simulator's bandwidth this is
//         an app-side figure (the paper's Figure 12 distinction).
//   ARPT  mean response time
//
// Usage:
//   bpsio_report <file-or-dir>... [options]
//     --block-size=BYTES  block unit the traces were captured with
//                         (BPSIO_CAPTURE_BLOCK_SIZE; default 512). Only
//                         byte-denominated outputs depend on it.
//     --exec-time=SECS    period for IOPS/BW (default: the trace span)
//     --align             align each trace's start to t=0 (traces from
//                         different machines / boots; same-boot captures
//                         share CLOCK_MONOTONIC and should keep timestamps)
//     --pid-stride=N      remap pids per source file (default 0: captured
//                         traces carry real, already-distinct pids); file
//                         i's pids become (i + 1) * N + pid, so the file
//                         count times N must fit in 32 bits, and a pid the
//                         remap carries past them fails the run
//     --per-pid           per-process table
//     --window=MS         windowed BPS timeline with MS-millisecond windows
//                         (--timeline=MS is the older spelling, kept as an
//                         alias); a span needing more than 2^20 windows
//                         fails the run with the smallest --window that fits
//     --csv               machine-readable single-row output
//
// Memory stays O(chunk * files): everything is open_trace_source (spans
// over each file's mapping) -> MergedSource -> single-pass consumers; no
// trace is ever materialized.
// Mapped pages count in RSS once touched, so MappedTraceSource maps only
// the window of pages under each file's current chunk and unmaps it at the
// next chunk; each file keeps about one chunk resident, not its whole size
// nor the 2 MiB page-cache folio a mapping of the whole file would hold.
// Each file holds one descriptor while the merge reads it; a source that
// finds the process out of descriptors lifts the soft limit to the hard one.
//
// The per-pid table is a vector of small rows (records, blocks, response
// time, a streaming union for the pid's T) found through one hash map from
// pid to row: one lookup per record. The map's size is the process count;
// the rows are sorted by pid only when printed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cli.hpp"
#include "common/config.hpp"
#include "common/format.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "metrics/interval_union.hpp"
#include "metrics/pipeline.hpp"
#include "metrics/timeline.hpp"
#include "trace/mapped_source.hpp"
#include "trace/record_source.hpp"

namespace bpsio {
namespace {

struct Options {
  std::vector<std::string> inputs;
  Bytes block_size = kDefaultBlockSize;
  std::int64_t exec_time_ns = 0;  ///< 0: the trace span
  bool align = false;
  long long pid_stride = 0;
  bool per_pid = false;
  std::int64_t window_ns = 0;  ///< 0: no timeline
  bool csv = false;
};

/// Builds the shared-parser option table over `opt`. Returns the parser so
/// main() can report usage.
cli::ArgParser make_parser(Options& opt) {
  cli::ArgParser parser("bpsio_report",
                        "BPS analysis of captured .bpstrace files.");
  parser.positionals("<trace-file-or-dir>...");
  parser.add_value("--block-size", "BYTES",
                   "block unit the traces were captured with (default 512)",
                   [&opt](const std::string& v) {
                     const auto parsed = Config::parse_bytes(v);
                     if (!parsed || *parsed == 0) return false;
                     opt.block_size = *parsed;
                     return true;
                   });
  parser.add_duration("--exec-time", &opt.exec_time_ns, cli::kNsPerSec, "SECS",
                      "period for IOPS/BW (default: the trace span)");
  parser.add_int("--pid-stride", &opt.pid_stride, 0, UINT32_MAX, "N",
                 "remap pids per source file (default 0: keep real pids)");
  parser.add_duration("--window", &opt.window_ns, cli::kNsPerMs, "MS",
                      "windowed BPS timeline with MS-millisecond windows");
  parser.add_duration("--timeline", &opt.window_ns, cli::kNsPerMs, "MS",
                      "alias of --window (older spelling)");
  parser.add_flag("--align", &opt.align,
                  "align each trace's start to t=0 (different clocks)");
  parser.add_flag("--per-pid", &opt.per_pid, "per-process table");
  parser.add_flag("--csv", &opt.csv, "machine-readable single-row output");
  return parser;
}

/// Expand each input: directories contribute every *.bpstrace inside them
/// (sorted, for deterministic merge tie-breaking), files pass through.
Result<std::vector<std::string>> expand_inputs(
    const std::vector<std::string>& inputs) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::directory_iterator(input, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".bpstrace") {
          found.push_back(entry.path().string());
        }
      }
      if (ec) {
        return Error{Errc::io_error, "cannot scan directory " + input};
      }
      if (found.empty()) {
        return Error{Errc::not_found, "no .bpstrace files in " + input};
      }
      std::sort(found.begin(), found.end());
      paths.insert(paths.end(), found.begin(), found.end());
    } else if (fs::is_regular_file(input, ec)) {
      paths.push_back(input);
    } else {
      return Error{Errc::not_found, input + " is not a file or directory"};
    }
  }
  return paths;
}

/// Everything the single pass observes beyond measure_stream's sample: the
/// stream span, per-pid aggregates, and the optional timeline. Implemented
/// as a RecordSource shim so one pull over the merged stream feeds
/// measure_stream and these observers simultaneously.
class ObservingSource final : public trace::RecordSource {
 public:
  struct PidStats {
    std::uint32_t pid = 0;
    std::uint64_t records = 0;
    std::uint64_t blocks = 0;
    std::int64_t response_ns = 0;
    metrics::IntervalUnion<> busy;  ///< per-pid overlapped I/O time
  };

  ObservingSource(trace::RecordSource& inner,
                  metrics::TimelineConsumer* timeline)
      : inner_(&inner), timeline_(timeline) {}

  std::span<const trace::IoRecord> next_chunk() override {
    if (!status_.ok()) return {};
    const std::span<const trace::IoRecord> chunk = inner_->next_chunk();
    for (const trace::IoRecord& r : chunk) {
      if (!any_) {
        lo_ns_ = r.start_ns;
        hi_ns_ = r.end_ns;
        any_ = true;
      }
      hi_ns_ = std::max(hi_ns_, r.end_ns);
      const auto [slot, added] = slots_.try_emplace(r.pid, pids_.size());
      if (added) pids_.emplace_back().pid = r.pid;
      PidStats& stats = pids_[slot->second];
      ++stats.records;
      stats.blocks += r.blocks;
      stats.response_ns += r.end_ns - r.start_ns;
      // The global stream is (start, end)-ordered, so each pid's
      // subsequence is too — the per-pid unions see ordered input.
      if (r.end_ns > r.start_ns) stats.busy.add(r.start_ns, r.end_ns);
    }
    if (timeline_ != nullptr) {
      timeline_->consume(chunk);
      if (!timeline_->status().ok()) return fail_timeline();
    }
    return chunk;
  }

  std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  Status status() const override {
    return status_.ok() ? inner_->status() : status_;
  }

  std::size_t process_count() const { return pids_.size(); }
  SimDuration span() const {
    return SimDuration(any_ ? hi_ns_ - lo_ns_ : 0);
  }
  /// The rows ordered by pid, their unions closed; call once, after the
  /// stream is exhausted.
  const std::vector<PidStats>& pids() {
    for (PidStats& stats : pids_) stats.busy.finish();
    std::sort(pids_.begin(), pids_.end(),
              [](const PidStats& a, const PidStats& b) {
                return a.pid < b.pid;
              });
    return pids_;
  }

 private:
  /// Stops the stream with the timeline's refusal and the --window that
  /// would hold it.
  std::span<const trace::IoRecord> fail_timeline() {
    // Spell the smallest fitting window so that --window's truncating
    // conversion gives at least it.
    const std::int64_t fits_ns = timeline_->fitting_window_ns();
    std::int64_t spelled_ns = fits_ns;
    while (cli::parse_duration_ns(fmt_ms(spelled_ns), cli::kNsPerMs) <
           fits_ns) {
      ++spelled_ns;
    }
    const Error refused = timeline_->status().error();
    status_ = Status{refused.code, refused.message + "; use --window=" +
                                       fmt_ms(spelled_ns) + " or larger"};
    return {};
  }

  trace::RecordSource* inner_;
  metrics::TimelineConsumer* timeline_;
  Status status_;
  bool any_ = false;
  std::int64_t lo_ns_ = 0;
  std::int64_t hi_ns_ = 0;
  std::unordered_map<std::uint32_t, std::size_t> slots_;  ///< pid -> row
  std::vector<PidStats> pids_;
};

int run_report(const Options& opt) {
  const auto paths = expand_inputs(opt.inputs);
  if (!paths.ok()) {
    std::fprintf(stderr, "bpsio_report: %s\n",
                 paths.error().to_string().c_str());
    return 2;
  }

  // File i's pids become (i + 1) * stride + pid, in 32 bits.
  const auto files = static_cast<std::uint64_t>(paths->size());
  if (files * static_cast<std::uint64_t>(opt.pid_stride) > UINT32_MAX) {
    std::fprintf(stderr,
                 "bpsio_report: --pid-stride=%lld over %llu files remaps pids "
                 "past %u; use a stride of at most %llu\n",
                 opt.pid_stride, static_cast<unsigned long long>(files),
                 UINT32_MAX,
                 static_cast<unsigned long long>(UINT32_MAX / files));
    return 2;
  }

  std::vector<std::unique_ptr<trace::RecordSource>> children;
  children.reserve(paths->size());
  for (const std::string& path : *paths) {
    auto source = trace::open_trace_source(path);
    if (!source->status().ok()) {
      std::fprintf(stderr, "bpsio_report: %s: %s\n", path.c_str(),
                   source->status().to_string().c_str());
      return 2;
    }
    children.push_back(std::move(source));
  }

  trace::MergeOptions merge;
  merge.alignment = opt.align ? trace::TimeAlignment::align_starts
                              : trace::TimeAlignment::keep;
  merge.pid_stride = static_cast<std::uint32_t>(opt.pid_stride);
  trace::MergedSource merged(std::move(children), merge);

  std::optional<metrics::TimelineConsumer> timeline;
  if (opt.window_ns > 0) timeline.emplace(SimDuration(opt.window_ns));
  ObservingSource observed(merged, timeline ? &*timeline : nullptr);

  const SimDuration exec_time(opt.exec_time_ns);
  // Records already store blocks in the capture unit; leave measure_stream
  // at the default block size so it does not rescale. Byte figures are
  // derived below from the actual capture block size.
  const auto sample_result =
      metrics::measure_stream(observed, /*moved_bytes=*/0, exec_time);
  if (!sample_result.ok()) {
    std::fprintf(stderr, "bpsio_report: %s\n",
                 sample_result.error().to_string().c_str());
    return 2;
  }
  metrics::MetricSample sample = *sample_result;
  if (timeline) timeline->finish();

  // Derived figures the sample cannot know: the period (span unless
  // overridden) and byte values in the capture block unit.
  const double span_s = observed.span().seconds();
  const double period_s =
      opt.exec_time_ns > 0 ? exec_time.seconds() : span_s;
  const Bytes app_bytes = blocks_to_bytes(sample.app_blocks, opt.block_size);
  sample.exec_time_s = period_s;
  sample.app_bytes = app_bytes;
  sample.iops = period_s > 0
                    ? static_cast<double>(sample.access_count) / period_s
                    : 0.0;
  sample.bandwidth_bps =
      period_s > 0 ? static_cast<double>(app_bytes) / period_s : 0.0;

  if (opt.csv) {
    TextTable table({"files", "records", "processes", "span_s", "B", "T_s",
                     "bps", "iops", "bw_Bps", "arpt_s", "peak"});
    table.add_row({std::to_string(paths->size()),
                   std::to_string(sample.access_count),
                   std::to_string(observed.process_count()),
                   fmt_double(span_s, 6), std::to_string(sample.app_blocks),
                   fmt_double(sample.io_time_s, 6), fmt_double(sample.bps, 3),
                   fmt_double(sample.iops, 3),
                   fmt_double(sample.bandwidth_bps, 3),
                   fmt_double(sample.arpt_s, 9),
                   fmt_double(sample.peak_concurrency, 0)});
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::printf("bpsio_report: %zu trace file(s), %llu records, %zu process(es)\n",
                paths->size(),
                static_cast<unsigned long long>(sample.access_count),
                observed.process_count());
    std::printf("  span   %s s%s\n", fmt_double(span_s, 6).c_str(),
                opt.exec_time_ns > 0 ? "  (period overridden by --exec-time)"
                                     : "");
    std::printf("  B      %llu blocks (%s @ %llu B/block)\n",
                static_cast<unsigned long long>(sample.app_blocks),
                human_bytes(app_bytes).c_str(),
                static_cast<unsigned long long>(opt.block_size));
    std::printf("  T      %s s\n", fmt_double(sample.io_time_s, 6).c_str());
    std::printf("  BPS    %s blocks/s\n", fmt_double(sample.bps, 3).c_str());
    std::printf("  IOPS   %s /s\n", fmt_double(sample.iops, 3).c_str());
    std::printf("  BW     %s (application bytes / period)\n",
                human_rate(sample.bandwidth_bps).c_str());
    std::printf("  ARPT   %s s\n", fmt_double(sample.arpt_s, 9).c_str());
    std::printf("  peak   %s concurrent\n",
                fmt_double(sample.peak_concurrency, 0).c_str());
  }

  if (opt.per_pid) {
    TextTable table({"pid", "records", "blocks", "T_s", "bps", "arpt_s"});
    for (const auto& stats : observed.pids()) {
      const double t_s = static_cast<double>(stats.busy.busy_ns()) / 1e9;
      table.add_row(
          {std::to_string(stats.pid), std::to_string(stats.records),
           std::to_string(stats.blocks), fmt_double(t_s, 6),
           fmt_double(t_s > 0 ? static_cast<double>(stats.blocks) / t_s : 0.0,
                      3),
           fmt_double(stats.records > 0
                          ? static_cast<double>(stats.response_ns) / 1e9 /
                                static_cast<double>(stats.records)
                          : 0.0,
                      9)});
    }
    std::printf("%s%s", opt.csv ? "" : "\n",
                opt.csv ? table.to_csv().c_str() : table.to_string().c_str());
  }

  if (timeline) {
    metrics::Timeline built = timeline->take();
    std::printf("%s%s", opt.csv ? "" : "\n", built.to_string().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bpsio

int main(int argc, char** argv) {
  bpsio::Options opt;
  bpsio::cli::ArgParser parser = bpsio::make_parser(opt);
  switch (parser.parse(argc, argv, opt.inputs)) {
    case bpsio::cli::ArgParser::Outcome::ok:
      break;
    case bpsio::cli::ArgParser::Outcome::help:
      return 0;
    case bpsio::cli::ArgParser::Outcome::error:
      return 2;
  }
  if (opt.inputs.empty()) {
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }
  return bpsio::run_report(opt);
}
