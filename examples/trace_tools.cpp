// Offline trace analysis — the "easy-to-use toolkit" the paper promises in
// its conclusion. Records a simulated run to a .bpstrace file, then analyzes
// any trace file: validation, B/T/BPS, per-process breakdown, busy/idle
// periods, and CSV export. Works on traces from any source that writes the
// 32-byte record format, not just the simulator.
//
//   build/examples/trace_tools record <out.bpstrace> [--procs=4]
//   build/examples/trace_tools analyze <in.bpstrace>
//   build/examples/trace_tools csv <in.bpstrace> <out.csv>
//   build/examples/trace_tools --help      (every command and its options)
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "common/format.hpp"
#include "core/bps_meter.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "example_cli.hpp"
#include "metrics/overlap.hpp"
#include "metrics/timeline.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "trace/validate.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

namespace {

const char* const kSummary =
    "Offline .bpstrace analysis.\n"
    "commands:\n"
    "  record <out.bpstrace> [--procs=N] [--file=SIZE] [--record=SIZE]\n"
    "  analyze <in.bpstrace>\n"
    "  timeline <in.bpstrace> [--window=SECS]\n"
    "  csv <in.bpstrace> <out.csv>\n"
    "  merge <in1> <in2> [...] <out> [--align]";

struct Args {
  long long procs = 4;
  Bytes file = 64 * kMiB;
  Bytes record = 64 * kKiB;
  std::int64_t window_ns = 250'000'000;
  bool align = false;
};

int record_trace(const std::string& path, const Args& args) {
  const auto procs = static_cast<std::uint32_t>(args.procs);
  core::Testbed testbed(
      core::pvfs_testbed(4, pfs::DeviceKind::hdd, procs, 42));
  workload::IozoneConfig wl;
  wl.file_size = args.file;
  wl.record_size = args.record;
  wl.processes = procs;
  const workload::WorkloadPtr wkl = workload::make_workload(wl);
  const auto run = wkl->run(testbed.env());

  // Saved in (start, end) order, the order bpsio_report and every metric
  // pipeline read; collector_source sorts the gathered records so.
  auto ordered = trace::collector_source(run.collector);
  trace::SpillWriter out(path);
  for (auto chunk = ordered.next_chunk(); !chunk.empty();
       chunk = ordered.next_chunk()) {
    out.append(chunk);
  }
  if (const Status closed = out.close(); !closed.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 closed.to_string().c_str());
    return 1;
  }
  std::printf("recorded %zu accesses from %u processes to %s (%zu bytes)\n",
              run.collector.record_count(), procs, path.c_str(),
              sizeof(trace::TraceHeader) +
                  run.collector.record_count() * sizeof(trace::IoRecord));
  return 0;
}

int analyze_trace(const std::string& path) {
  auto records = trace::load_binary(path);
  if (!records.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 records.error().to_string().c_str());
    return 1;
  }
  const auto report = trace::validate(*records);
  std::printf("%s\n", report.to_string().c_str());

  core::BpsMeter meter;
  meter.gather(*records);
  const auto reading = meter.measure();
  std::printf("%s\n\n", reading.to_string().c_str());

  // Per-process breakdown.
  TextTable table({"pid", "accesses", "blocks", "io time (s)", "BPS", "ARPT (ms)"});
  std::set<std::uint32_t> pids;
  for (const auto& r : *records) pids.insert(r.pid);
  for (const std::uint32_t pid : pids) {
    trace::RecordFilter f;
    f.pid = pid;
    const auto r = meter.measure(f);
    double arpt_ms = 0;
    std::size_t n = 0;
    for (const auto& rec : *records) {
      if (rec.pid == pid) {
        arpt_ms += rec.response_time().seconds() * 1e3;
        ++n;
      }
    }
    table.add_row({std::to_string(pid), std::to_string(r.accesses),
                   std::to_string(r.blocks), fmt_double(r.io_time_s, 3),
                   fmt_double(r.bps, 0),
                   fmt_double(n ? arpt_ms / static_cast<double>(n) : 0, 3)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Busy periods.
  trace::TraceCollector collector;
  collector.gather(*records);
  const auto merged = metrics::merge_intervals(collector.col_time());
  std::printf("busy periods: %zu, total busy %.4fs, idle inside span %.4fs, "
              "peak concurrency %zu\n",
              merged.size(),
              metrics::overlap_time_merged(collector.col_time()).seconds(),
              metrics::idle_time(collector.col_time()).seconds(),
              metrics::peak_concurrency(collector.col_time()));
  return 0;
}

int show_timeline(const std::string& path, const Args& args) {
  auto records = trace::load_binary(path);
  if (!records.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 records.error().to_string().c_str());
    return 1;
  }
  trace::TraceCollector collector;
  collector.gather(*records);
  const auto tl =
      metrics::build_timeline(collector, SimDuration(args.window_ns));
  if (!tl.ok()) {
    std::fprintf(stderr, "trace_tools: %s\n", tl.error().to_string().c_str());
    return 1;
  }
  std::printf("%zu windows of %.0f ms:\n%s", tl->windows.size(),
              static_cast<double>(args.window_ns) / 1e6,
              tl->to_string().c_str());
  std::printf("peak windowed BPS %.0f, idle windows %.0f%%\n", tl->peak_bps(),
              tl->idle_window_fraction() * 100.0);
  return 0;
}

int merge_traces_cmd(const std::vector<std::string>& paths,
                     const std::string& out, const Args& args) {
  std::vector<std::vector<trace::IoRecord>> traces;
  for (const std::string& path : paths) {
    auto records = trace::load_binary(path);
    if (!records.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                   records.error().to_string().c_str());
      return 1;
    }
    traces.push_back(std::move(*records));
  }
  trace::MergeOptions opts;
  if (args.align) opts.alignment = trace::TimeAlignment::align_starts;
  const auto merged = trace::merge_traces(traces, opts);
  const auto written = trace::save_binary(out, merged);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 written.error().to_string().c_str());
    return 1;
  }
  std::printf("merged %zu traces (%zu records) into %s\n", paths.size(),
              merged.size(), out.c_str());
  return 0;
}

int export_csv(const std::string& in, const std::string& out) {
  auto records = trace::load_binary(in);
  if (!records.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", in.c_str(),
                 records.error().to_string().c_str());
    return 1;
  }
  std::ofstream f(out);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  trace::write_csv(f, *records);
  std::printf("wrote %zu records to %s\n", records->size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  Args args;
  std::size_t min_operands = 1;
  std::size_t max_operands = 1;
  cli::ArgParser parser("trace_tools " + cmd,
                        "Offline .bpstrace analysis; see trace_tools --help.");
  if (cmd == "record") {
    parser.positionals("<out.bpstrace>");
    parser.add_int("--procs", &args.procs, 1, examples::kMaxCount, "N",
                   "reader processes (default 4)");
    examples::add_bytes(parser, "--file", &args.file,
                        "bytes read over all processes (default 64M)");
    examples::add_bytes(parser, "--record", &args.record,
                        "bytes per read call (default 64k)");
  } else if (cmd == "analyze") {
    parser.positionals("<in.bpstrace>");
  } else if (cmd == "timeline") {
    parser.positionals("<in.bpstrace>");
    parser.add_duration("--window", &args.window_ns, cli::kNsPerSec, "SECS",
                        "window length in seconds (default 0.25)");
  } else if (cmd == "csv") {
    parser.positionals("<in.bpstrace> <out.csv>");
    min_operands = max_operands = 2;
  } else if (cmd == "merge") {
    parser.positionals("<in1> <in2> [...] <out>");
    parser.add_flag("--align", &args.align,
                    "shift each trace so its earliest start is t=0");
    min_operands = 3;
    max_operands = std::numeric_limits<std::size_t>::max();
  } else {
    // Not a command: --help lists them, anything else is bad usage.
    cli::ArgParser top("trace_tools", kSummary);
    top.positionals("<command> <operands>...");
    const auto operands = examples::parse_args(top, argc, argv, 0, 1);
    const std::string why = operands.empty()
                                ? "no command"
                                : "unknown command '" + operands[0] + "'";
    std::fprintf(stderr, "trace_tools: %s\n%s", why.c_str(),
                 top.usage().c_str());
    return 2;
  }
  auto operands = examples::parse_args(parser, argc - 1, argv + 1,
                                       min_operands, max_operands);
  if (cmd == "record") return record_trace(operands[0], args);
  if (cmd == "analyze") return analyze_trace(operands[0]);
  if (cmd == "timeline") return show_timeline(operands[0], args);
  if (cmd == "csv") return export_csv(operands[0], operands[1]);
  const std::string out = operands.back();
  operands.pop_back();
  return merge_traces_cmd(operands, out, args);
}
