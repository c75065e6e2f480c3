// Trace file tools — record a simulated run to a .bpstrace file, export a
// trace as CSV, or merge several traces into one. Works on traces from any
// source that writes the 32-byte record format, not just the simulator.
// bpsio_report analyzes the files: B, T, BPS, IOPS, BW, ARPT, peak
// concurrency, per-pid rows and windowed timelines.
//
//   build/examples/trace_tools record <out.bpstrace> [--procs=4]
//   build/examples/trace_tools csv <in.bpstrace> <out.csv>
//   build/examples/trace_tools merge <in1> <in2> [...] <out> [--align]
//   build/examples/trace_tools --help      (every command and its options)
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "example_cli.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
#include "workload/registry.hpp"

using namespace bpsio;

namespace {

const char* const kSummary =
    "Record, export and merge .bpstrace files; bpsio_report analyzes them.\n"
    "commands:\n"
    "  record <out.bpstrace> [--procs=N] [--file=SIZE] [--record=SIZE]\n"
    "  csv <in.bpstrace> <out.csv>\n"
    "  merge <in1> <in2> [...] <out> [--align]";

struct Args {
  long long procs = 4;
  Bytes file = 64 * kMiB;
  Bytes record = 64 * kKiB;
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
  std::printf("recorded %zu accesses (B=%llu blocks) from %u processes to %s "
              "(%zu bytes)\n",
              run.collector.record_count(),
              static_cast<unsigned long long>(run.collector.total_blocks()),
              procs, path.c_str(),
              sizeof(trace::TraceHeader) +
                  run.collector.record_count() * sizeof(trace::IoRecord));
  return 0;
}

int merge_traces_cmd(const std::vector<std::string>& paths,
                     const std::string& out, const Args& args) {
  // Streams the merge: O(chunk) memory and one descriptor per input.
  trace::MergeOptions opts;
  if (args.align) opts.alignment = trace::TimeAlignment::align_starts;
  if (const Status merged = trace::merge_trace_files(paths, out, opts);
      !merged.ok()) {
    std::fprintf(stderr, "cannot merge into %s: %s\n", out.c_str(),
                 merged.to_string().c_str());
    return 1;
  }
  const trace::MappedTraceSource written(out);
  std::printf("merged %zu traces (%llu records) into %s\n", paths.size(),
              static_cast<unsigned long long>(written.record_count()),
              out.c_str());
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
  f.flush();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
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
                        "Trace file tools; see trace_tools --help.");
  if (cmd == "record") {
    parser.positionals("<out.bpstrace>");
    parser.add_int("--procs", &args.procs, 1, examples::kMaxCount, "N",
                   "reader processes (default 4)");
    examples::add_bytes(parser, "--file", &args.file,
                        "bytes read over all processes (default 64M)");
    examples::add_bytes(parser, "--record", &args.record,
                        "bytes per read call (default 64k)");
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
    const auto operands = examples::parse_args(
        top, argc, argv, 0, std::numeric_limits<std::size_t>::max());
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
  if (cmd == "csv") return export_csv(operands[0], operands[1]);
  const std::string out = operands.back();
  operands.pop_back();
  return merge_traces_cmd(operands, out, args);
}
