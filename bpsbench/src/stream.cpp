#include "stream.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "trace/spill_writer.hpp"
#include "workload/zoo/zoo.hpp"

namespace bpsbench {

namespace zoo = bpsio::workload::zoo;
using bpsio::trace::IoOpKind;
using bpsio::trace::IoRecord;
using bpsio::workload::AppOp;

std::vector<ProcessOps> zoo_mix(std::uint64_t seed) {
  std::vector<ProcessOps> mix;
  zoo::ZooParams params;
  params.seed = seed;
  for (const zoo::ScenarioInfo& info : zoo::scenarios()) {
    const auto plan = zoo::build_plan(info.name, params);
    if (!plan.ok()) throw std::runtime_error("zoo plan " + info.name + " failed");
    for (const auto& ops : plan->ops) {
      ProcessOps proc;
      for (const AppOp& op : ops) {
        if (op.kind != AppOp::Kind::read && op.kind != AppOp::Kind::write) continue;
        proc.kind.push_back(op.kind == AppOp::Kind::read ? IoOpKind::read
                                                         : IoOpKind::write);
        proc.blocks.push_back(op.size / bpsio::kDefaultBlockSize);
      }
      if (proc.kind.empty()) continue;
      proc.pid = 1000 + static_cast<std::uint32_t>(mix.size());
      mix.push_back(std::move(proc));
    }
  }
  return mix;
}

Lane::Lane(std::vector<ProcessOps> procs, std::uint64_t seed)
    : procs_(std::move(procs)), cursor_(procs_.size(), 0), rng_(seed) {}

void Lane::frame(std::int64_t start_ns, std::int64_t window_ns,
                 std::size_t count, std::vector<IoRecord>& out) {
  const std::int64_t gap = std::max<std::int64_t>(1, window_ns / static_cast<std::int64_t>(count));
  std::uniform_int_distribution<std::int64_t> offset(0, window_ns - 1);
  std::uniform_int_distribution<std::int64_t> span(gap, 8 * gap);
  std::uniform_int_distribution<std::size_t> pick(0, procs_.size() - 1);
  offsets_.resize(count);
  for (auto& o : offsets_) o = offset(rng_);
  std::sort(offsets_.begin(), offsets_.end());
  const std::int64_t limit = start_ns + window_ns;
  const std::size_t first = out.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pick(rng_);
    ProcessOps& proc = procs_[p];
    const std::size_t k = cursor_[p]++ % proc.kind.size();
    IoRecord r;
    r.pid = proc.pid;
    r.op = proc.kind[k];
    r.blocks = proc.blocks[k];
    r.start_ns = start_ns + offsets_[i];
    r.end_ns = i + 1 == count ? limit : std::min(limit, r.start_ns + span(rng_));
    out.push_back(r);
  }
  // Equal starts may carry ends in any order; restore (start, end) order.
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                   [](const IoRecord& a, const IoRecord& b) {
                     return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                     : a.end_ns < b.end_ns;
                   });
}

std::vector<Lane> make_lanes(std::uint64_t seed, std::size_t lanes,
                             bool one_pid) {
  const std::vector<ProcessOps> mix = zoo_mix(seed);
  if (mix.size() < lanes) throw std::runtime_error("zoo mix has too few processes");
  std::vector<Lane> out;
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<ProcessOps> mine;
    for (std::size_t p = l; p < mix.size(); p += lanes) {
      mine.push_back(mix[p]);
      if (one_pid) break;
    }
    out.emplace_back(std::move(mine), seed * 1'000'003 + l);
  }
  return out;
}

ClosedLoopStream::ClosedLoopStream(std::vector<Lane>& lanes,
                                   std::size_t frame_records,
                                   std::int64_t gap_ns)
    : window_(static_cast<std::int64_t>(frame_records * lanes.size()) * gap_ns),
      templates_(lanes.size()) {
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (std::size_t f = 0; f < kTemplates; ++f) {
      templates_[l].emplace_back();
      lanes[l].frame(static_cast<std::int64_t>(f) * window_, window_,
                     frame_records, templates_[l].back());
    }
  }
}

void ClosedLoopStream::frame(std::size_t lane, std::size_t f,
                             std::int64_t base_ns,
                             std::vector<IoRecord>& out) const {
  const auto& tmpl = templates_[lane][f % kTemplates];
  const std::int64_t shift =
      base_ns + static_cast<std::int64_t>(f / kTemplates * kTemplates) * window_;
  out.assign(tmpl.begin(), tmpl.end());
  for (IoRecord& r : out) {
    r.start_ns += shift;
    r.end_ns += shift;
  }
}

StreamTotals write_trace_set(const std::string& dir, std::uint64_t seed,
                             std::size_t files, std::size_t records_each,
                             bool one_pid) {
  constexpr std::size_t kFrame = 256;
  constexpr std::int64_t kWindowNs = 256 * 20'000;  // 20 us mean gap per file
  std::filesystem::create_directories(dir);
  std::vector<Lane> lanes = make_lanes(seed, files, one_pid);
  StreamTotals totals;
  std::set<std::uint32_t> pids;
  std::vector<IoRecord> buf;
  for (std::size_t f = 0; f < files; ++f) {
    char name[48];
    std::snprintf(name, sizeof name, "/lane-%02zu.bpstrace", f);
    bpsio::trace::SpillWriter writer(dir + name, 1 << 16);
    if (!writer.ok()) throw std::runtime_error(std::string("cannot write ") + name);
    std::int64_t t = 1'000'000'000;
    for (std::size_t done = 0; done < records_each; done += kFrame) {
      buf.clear();
      lanes[f].frame(t, kWindowNs, std::min(kFrame, records_each - done), buf);
      t += kWindowNs;
      std::uint32_t last_pid = 0;  // lane pids start at 1000
      for (const IoRecord& r : buf) {
        totals.blocks += r.blocks;
        if (r.pid != last_pid) pids.insert(last_pid = r.pid);
      }
      writer.append(buf);
      totals.records += buf.size();
    }
    if (!writer.close().ok()) throw std::runtime_error(std::string("cannot close ") + name);
  }
  totals.processes = pids.size();
  return totals;
}

}  // namespace bpsbench
