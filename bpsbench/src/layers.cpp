// layers: the traced per-layer replay, and gen-traces (offline_report's
// input).
//
// `layers` replays each workload's seeded input in-process through the
// public calls of every layer, in pipeline order, with a span around each
// call. Spans (name, start, end, parent) stay in memory and are written to
// <dir>/spans.json at the end; a layer's figure is its spans' self time
// (duration minus the child spans it covers) per record. The live path is
// replayed three times untraced and three times traced; the ratio of the
// medians is the tracing overhead.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <poll.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "agent/aggregator.hpp"
#include "agent/forward.hpp"
#include "capture/record_shipper.hpp"
#include "collector/tenant_shards.hpp"
#include "commands.hpp"
#include "common/thread_pool.hpp"
#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "metrics/calculators.hpp"
#include "metrics/online.hpp"
#include "metrics/overlap.hpp"
#include "metrics/pipeline.hpp"
#include "stream.hpp"
#include "trace/frame.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/spill_writer.hpp"
#include "workload/registry.hpp"

namespace bpsbench {
namespace {

namespace fs = std::filesystem;
using bpsio::SimDuration;
using bpsio::trace::IoRecord;
using RecordSpan = std::span<const IoRecord>;

/// In-memory span recorder. Off, a Scope costs one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(&t) {
      if (!t.on_) return;
      idx_ = static_cast<int>(t.spans_.size());
      t.spans_.push_back({name, now_ns(), 0, t.current_});
      t.current_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
      s.end = now_ns();
      t_->current_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  /// Self time (ns) per span name.
  std::map<std::string, std::int64_t> self_ns() const {
    std::vector<std::int64_t> self;
    for (const Span& s : spans_) self.push_back(s.end - s.start);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"start\": " << s.start
          << ", \"end\": " << s.end << ", \"parent\": " << s.parent << "}";
    }
    out << "\n]\n";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// A Unix-socket peer that accepts any number of connections and discards
/// what they send: the far end for ForwardLink and the socket shipper.
class Sink {
 public:
  explicit Sink(std::string path) : path_(std::move(path)) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof addr.sun_path - 1);
    ::unlink(path_.c_str());
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd_, 16) != 0) {
      throw std::runtime_error("cannot listen on " + path_);
    }
    thread_ = std::jthread([this] { serve(); });
  }
  ~Sink() {
    stop_.store(true);
    thread_.join();
    ::close(fd_);
    ::unlink(path_.c_str());
  }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  const std::string& path() const { return path_; }

 private:
  void serve() {
    std::vector<pollfd> fds{{fd_, POLLIN, 0}};
    std::vector<char> buf(1 << 20);
    while (!stop_.load()) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t i = fds.size(); i-- > 0;) {
        if ((fds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
        if (i == 0) {
          const int c = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
          if (c >= 0) fds.push_back({c, POLLIN, 0});
        } else if (::recv(fds[i].fd, buf.data(), buf.size(), 0) <= 0) {
          ::close(fds[i].fd);
          fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) ::close(fds[i].fd);
  }

  std::string path_;
  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::jthread thread_;
};

/// Layer figures collected across the replays, the live path's budget rows
/// (ns/record per daemon stage), and failed checks.
struct Figures {
  std::map<std::string, double> value;
  std::map<std::string, double> budget;
  std::vector<std::string> failed;
  void check(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
};

/// Alternating serial/parallel passes behind each serial-vs-parallel figure.
constexpr int kVerdictReps = 5;

double per_rec(std::int64_t ns, std::uint64_t records) {
  return records ? static_cast<double>(ns) / static_cast<double>(records) : 0.0;
}

template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return quantile(us, 0.5);
}

// ---------------------------------------------------------------- live path

using LiveFrames = std::vector<std::vector<IoRecord>>;  // lane-interleaved

/// live_fanin phase A's input: the same lanes, frames and stamps.
LiveFrames live_frames(std::uint64_t seed, std::size_t records, bool one_pid) {
  constexpr std::size_t kLanes = 2;
  constexpr std::size_t kFrame = 4096;
  std::vector<Lane> lanes = make_lanes(seed, kLanes, one_pid);
  const ClosedLoopStream closed(lanes, kFrame, kClosedLoopGapNs);
  LiveFrames frames;
  for (std::size_t f = 0; f * kFrame * kLanes < records; ++f) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      frames.emplace_back();
      closed.frame(l, f, 1'000'000'000, frames.back());
    }
  }
  return frames;
}

/// Agent then collector, frame by frame, as the daemons process them.
/// Returns the replay's wall time; with `fig`, also records the figures.
double replay_live(const LiveFrames& frames, const std::string& dir,
                   const std::string& sink_path, Tracer& tr, Figures* fig) {
  const std::int64_t t0 = now_ns();
  const SimDuration window = SimDuration::from_seconds(10);
  fs::create_directories(dir);
  bpsio::agent::MetricAggregator aggregator(window, bpsio::kDefaultBlockSize);
  bpsio::collector::TenantShards shards(8, window, bpsio::kDefaultBlockSize);
  bpsio::collector::TenantShards::Tenant* tenant = shards.handle("default");
  bpsio::agent::ForwardOptions fopt;
  fopt.target = sink_path;
  bpsio::agent::ForwardLink forward(fopt);
  if (!forward.connect().ok()) throw std::runtime_error("forward link cannot connect");
  std::vector<bpsio::trace::FrameDecoder> agent_dec(2), coll_dec(2);
  std::vector<std::unique_ptr<bpsio::trace::SpillWriter>> agent_spool, coll_spool;
  std::vector<std::string> agent_paths, coll_paths;
  for (int l = 0; l < 2; ++l) {
    agent_paths.push_back(dir + "/agent-" + std::to_string(l) + ".bpstrace");
    coll_paths.push_back(dir + "/collector-" + std::to_string(l) + ".bpstrace");
    agent_spool.push_back(std::make_unique<bpsio::trace::SpillWriter>(agent_paths.back()));
    coll_spool.push_back(std::make_unique<bpsio::trace::SpillWriter>(coll_paths.back()));
  }
  std::vector<char> wire, tagged;
  std::uint64_t records = 0;
  bool io_ok = true;
  {
    Tracer::Scope root(tr, "replay.live");
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::size_t l = f % 2;
      const RecordSpan recs = frames[f];
      records += recs.size();
      wire.clear();
      {
        Tracer::Scope s(tr, "trace.encode");
        bpsio::trace::encode_frame(recs, wire);
      }
      const bpsio::trace::FrameDecoder::FrameSink agent_sink = [&](RecordSpan got) {
        {
          Tracer::Scope s(tr, "agent.aggregate");
          aggregator.add(got);
        }
        {
          Tracer::Scope s(tr, "trace.spool@agent");
          agent_spool[l]->append(got);
        }
        Tracer::Scope s(tr, "agent.forward");
        forward.append(l, got);
      };
      {
        Tracer::Scope s(tr, "trace.decode@agent");
        io_ok &= agent_dec[l].feed(wire.data(), wire.size(), agent_sink).ok();
      }
      {
        Tracer::Scope s(tr, "agent.forward");
        forward.flush_all();
      }
      // The bytes the forward link shipped: one tagged frame per stream.
      tagged.clear();
      bpsio::trace::encode_tagged_frame(l, recs, tagged);
      const bpsio::trace::FrameDecoder::TaggedFrameSink coll_sink =
          [&](std::uint64_t, RecordSpan got) {
            {
              Tracer::Scope s(tr, "collector.ingest");
              shards.ingest(tenant, got);
            }
            Tracer::Scope s(tr, "trace.spool@collector");
            coll_spool[l]->append(got);
          };
      Tracer::Scope s(tr, "trace.decode@collector");
      io_ok &= coll_dec[l].feed(tagged.data(), tagged.size(), coll_sink).ok();
    }
    {
      Tracer::Scope s(tr, "trace.spool@agent");
      for (auto& w : agent_spool) io_ok &= w->close().ok();
    }
    Tracer::Scope s(tr, "trace.spool@collector");
    for (auto& w : coll_spool) io_ok &= w->close().ok();
  }
  forward.close();
  if (!io_ok) throw std::runtime_error("live replay: a decode or spool failed");
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (fig == nullptr) return wall_s;

  // Drain: the k-way merge both daemons run at shutdown.
  const std::int64_t m0 = now_ns();
  const bool merged = bpsio::trace::merge_trace_files(agent_paths, dir + "/agent-drain.bpstrace").ok() &&
                      bpsio::trace::merge_trace_files(coll_paths, dir + "/collector-drain.bpstrace").ok();
  fig->value["trace.merge_files_s"] = static_cast<double>(now_ns() - m0) / 1e9;
  const bpsio::trace::SpilledTraceSource drained(dir + "/collector-drain.bpstrace");
  fig->check(merged && drained.record_count() == records, "live replay: drained records != replayed");
  fig->check(aggregator.records_total() == records && shards.records_total() == records,
             "live replay: aggregator/shards record totals != replayed");
  fig->check(forward.stats().records_forwarded == records && forward.stats().records_dropped == 0 &&
                 forward.stats().records_spilled == 0,
             "live replay: forward link lost records");

  const auto self = tr.self_ns();
  const auto at = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? std::int64_t{0} : it->second;
  };
  fig->value["trace.encode_ns_per_rec"] = per_rec(at("trace.encode"), records);
  fig->value["trace.decode_ns_per_rec"] =
      per_rec(at("trace.decode@agent") + at("trace.decode@collector"), 2 * records);
  fig->value["trace.spool_ns_per_rec"] =
      per_rec(at("trace.spool@agent") + at("trace.spool@collector"), 2 * records);
  fig->value["agent.aggregate_ns_per_rec"] = per_rec(at("agent.aggregate"), records);
  fig->value["agent.forward_ns_per_rec"] = per_rec(at("agent.forward"), records);
  // Budget rows, per stage (each daemon decodes and spools once).
  for (const char* name : {"trace.decode@agent", "agent.aggregate", "trace.spool@agent", "agent.forward",
                           "trace.decode@collector", "collector.ingest", "trace.spool@collector"}) {
    fig->budget[name] = per_rec(at(name), records);
  }
  const bpsio::agent::TransportStats transport;
  const bpsio::collector::CollectorTransport ctransport;
  fig->value["agent.render_us"] = median_us(15, [&] { aggregator.prometheus_text(transport); });
  fig->value["collector.render_us"] = median_us(15, [&] { shards.prometheus_text(ctransport); });
  return wall_s;
}

/// SlidingWindowMetrics alone, and TenantShards::ingest on one thread vs
/// two threads feeding different tenants.
void replay_windows(const LiveFrames& frames, Tracer& tr, Figures& fig) {
  const SimDuration window = SimDuration::from_seconds(10);
  std::uint64_t records = 0;
  bpsio::metrics::SlidingWindowMetrics w(window);
  {
    Tracer::Scope root(tr, "replay.window");
    for (const auto& f : frames) {
      records += f.size();
      Tracer::Scope s(tr, "metrics.window_add");
      w.add(RecordSpan(f));
    }
  }
  fig.value["metrics.window_add_ns_per_rec"] = per_rec(tr.self_ns()["metrics.window_add"], records);
  fig.value["metrics.window_live_records"] = static_cast<double>(w.accesses());

  const auto ingest = [&](int threads) {
    bpsio::collector::TenantShards shards(8, window, bpsio::kDefaultBlockSize);
    bpsio::collector::TenantShards::Tenant* tenants[2] = {shards.handle("a"), shards.handle("b")};
    const std::int64_t t0 = now_ns();
    const auto feed = [&](std::size_t lane, std::size_t step) {
      for (std::size_t f = lane; f < frames.size(); f += step) {
        shards.ingest(tenants[f % 2], RecordSpan(frames[f]));
      }
    };
    if (threads == 1) {
      feed(0, 1);
    } else {
      std::jthread other(feed, 1, 2);
      feed(0, 2);
    }
    const double ns = static_cast<double>(now_ns() - t0);
    fig.check(shards.records_total() == records, "collector ingest lost records");
    return ns / static_cast<double>(records);
  };
  Tracer::Scope s(tr, "collector.ingest.threads");
  std::vector<double> t1, t2;
  for (int rep = 0; rep < kVerdictReps; ++rep) {
    t1.push_back(ingest(1));
    t2.push_back(ingest(2));
  }
  fig.value["collector.ingest_ns_per_rec.t1"] = quantile(t1, 0.5);
  fig.value["collector.ingest_ns_per_rec.t2"] = quantile(t2, 0.5);
}

// ------------------------------------------------------------- offline path

void replay_offline(const std::string& dir, const StreamTotals& want, Tracer& tr, Figures& fig) {
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".bpstrace") paths.push_back(e.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<IoRecord> all;
  all.reserve(want.records);
  std::uint64_t checksum = 0;
  {
    Tracer::Scope root(tr, "replay.offline");
    {
      Tracer::Scope s(tr, "trace.source");
      std::vector<std::unique_ptr<bpsio::trace::RecordSource>> children;
      for (const auto& p : paths) children.push_back(bpsio::trace::open_trace_source(p));
      bpsio::trace::MergeOptions keep;
      keep.pid_stride = 0;
      bpsio::trace::MergedSource merged(std::move(children), keep);
      for (RecordSpan c = merged.next_chunk(); !c.empty(); c = merged.next_chunk()) {
        for (const IoRecord& r : c) checksum += r.blocks + static_cast<std::uint64_t>(r.end_ns - r.start_ns) + r.pid;
        Tracer::Scope copy(tr, "bench.copy");  // materialize for the passes below; not a layer
        all.insert(all.end(), c.begin(), c.end());
      }
      fig.check(merged.status().ok(), "offline: merged source failed");
    }
    {
      Tracer::Scope s(tr, "metrics.pipeline");
      bpsio::trace::VectorSource src = bpsio::trace::VectorSource::view(all);
      bpsio::metrics::BlocksConsumer blocks;
      bpsio::metrics::OverlapConsumer overlap;
      bpsio::metrics::ArptConsumer arpt;
      bpsio::metrics::ProcessCountConsumer procs;
      bpsio::metrics::MetricPipeline pipe;
      pipe.attach(blocks).attach(overlap).attach(arpt).attach(procs);
      fig.check(pipe.run(src).ok(), "offline: pipeline rejected the stream");
      fig.check(blocks.record_count() == want.records && blocks.blocks() == want.blocks &&
                    procs.process_count() == want.processes,
                "offline: pipeline records/B/processes != generator's");
    }
    {
      Tracer::Scope s(tr, "metrics.timeline");
      bpsio::trace::VectorSource src = bpsio::trace::VectorSource::view(all);
      bpsio::metrics::TimelineConsumer timeline(SimDuration(100'000'000));
      bpsio::metrics::MetricPipeline pipe;
      pipe.attach(timeline);
      fig.check(pipe.run(src).ok(), "offline: timeline rejected the stream");
    }
  }
  fig.check(checksum != 0 && all.size() == want.records, "offline: source delivered the wrong records");
  std::vector<bpsio::trace::TimeInterval> intervals;
  intervals.reserve(all.size());
  for (const IoRecord& r : all) intervals.push_back({r.start_ns, r.end_ns});
  // Serial vs parallel: alternating passes on fresh copies, median each.
  const std::uint64_t n = want.records;
  bpsio::ThreadPool pool(2);
  std::vector<double> serial_ns, parallel_ns;
  for (int rep = 0; rep < kVerdictReps; ++rep) {
    auto serial_in = intervals;
    auto parallel_in = intervals;
    SimDuration serial, parallel;
    std::int64_t t0 = now_ns();
    {
      Tracer::Scope s(tr, "metrics.overlap_serial");
      serial = bpsio::metrics::overlap_time_merged(std::move(serial_in));
    }
    serial_ns.push_back(per_rec(now_ns() - t0, n));
    t0 = now_ns();
    {
      Tracer::Scope s(tr, "metrics.overlap_parallel.t2");
      parallel = bpsio::metrics::overlap_time_parallel(std::move(parallel_in), pool);
    }
    parallel_ns.push_back(per_rec(now_ns() - t0, n));
    fig.check(serial == parallel, "offline: serial and parallel overlap disagree");
  }

  auto self = tr.self_ns();
  fig.value["trace.source_ns_per_rec"] = per_rec(self["trace.source"], n);
  fig.value["metrics.pipeline_ns_per_rec"] = per_rec(self["metrics.pipeline"], n);
  fig.value["metrics.timeline_ns_per_rec"] = per_rec(self["metrics.timeline"], n);
  fig.value["metrics.overlap_serial_ns_per_rec"] = quantile(serial_ns, 0.5);
  fig.value["metrics.overlap_parallel_ns_per_rec.t2"] = quantile(parallel_ns, 0.5);
}

// ----------------------------------------------------------- zoo and capture

void replay_zoo(std::uint64_t seed, double scale, bool hdd, Tracer& tr, Figures& fig) {
  namespace zoo = bpsio::workload::zoo;
  zoo::ZooParams zp;
  zp.scale = scale;
  zp.seed = seed;
  std::vector<zoo::ZooPlan> plans;
  const std::int64_t p0 = now_ns();
  {
    Tracer::Scope s(tr, "workload.plan");
    for (const zoo::ScenarioInfo& info : zoo::scenarios()) {
      auto plan = zoo::build_plan(info.name, zp);
      if (!plan.ok()) throw std::runtime_error("zoo plan " + info.name + " failed");
      plans.push_back(std::move(*plan));
    }
  }
  fig.value["workload.plan_ms"] = static_cast<double>(now_ns() - p0) / 1e6;

  bpsio::workload::Params params;
  params.set("scale", std::to_string(scale));
  params.set("seed", std::to_string(seed));
  std::uint64_t accesses = 0;
  std::int64_t sim_ns = 0;
  for (const zoo::ZooPlan& plan : plans) {
    const std::int64_t t0 = now_ns();
    bpsio::workload::RunResult run;
    {
      Tracer::Scope s(tr, "sim.run");
      auto wl = bpsio::workload::make_workload("zoo." + plan.name, params);
      if (!wl.ok()) throw std::runtime_error("zoo." + plan.name + " not in the registry");
      bpsio::core::Testbed testbed(hdd ? bpsio::core::local_hdd_testbed(seed)
                                       : bpsio::core::local_ssd_testbed(seed));
      testbed.drop_caches();
      run = (*wl)->run(testbed.env());
    }
    sim_ns += now_ns() - t0;
    const auto sample = bpsio::metrics::measure_run(run.collector, 0, run.exec_time);
    accesses += sample.access_count;
    fig.check(sample.app_blocks == plan.total_blocks(), "zoo." + plan.name + ": simulated B != plan B");
  }
  fig.value["sim.run_ns_per_access"] = per_rec(sim_ns, accesses);
}

/// RecordShipper::ship of one full 4096-record buffer, spill then socket.
void replay_ship(std::uint64_t seed, const std::string& dir, const std::string& sink_path, Tracer& tr,
                 Figures& fig) {
  constexpr int kShips = 64;
  std::vector<Lane> lanes = make_lanes(seed, 1, /*one_pid=*/true);
  std::vector<IoRecord> buffer;
  lanes[0].frame(1'000'000'000, 4096 * 1'500, 4096, buffer);
  bpsio::capture::CaptureConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir + "/ship";
  fs::create_directories(cfg.dir);
  const auto time_ships = [&](const bpsio::capture::CaptureConfig& c, const char* span,
                              bpsio::capture::RecordShipper::Backend want) {
    bpsio::capture::RecordShipper shipper(c, 4242, 4242);
    std::vector<double> us;
    for (int i = 0; i < kShips; ++i) {
      Tracer::Scope s(tr, span);
      const std::int64_t t0 = now_ns();
      fig.check(shipper.ship(buffer), std::string(span) + ": shipper died");
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    fig.check(shipper.backend() == want, std::string(span) + ": wrong transport");
    shipper.close();
    return quantile(us, 0.5);
  };
  fig.value["capture.flush_spill_us"] =
      time_ships(cfg, "capture.flush_spill", bpsio::capture::RecordShipper::Backend::spill);
  cfg.socket_path = sink_path;
  fig.value["capture.flush_socket_us"] =
      time_ships(cfg, "capture.flush_socket", bpsio::capture::RecordShipper::Backend::socket);
}

/// The ns/record budget table of one path, and its coverage of the
/// end-to-end figure (0 when no end-to-end figure was given).
double budget(const char* title, const std::vector<std::pair<std::string, double>>& rows, double e2e_rps,
              const std::vector<std::pair<std::string, double>>& stages) {
  double sum = 0;
  std::fprintf(stderr, "\n%s budget (ns/record)\n", title);
  for (const auto& [name, ns] : rows) {
    std::fprintf(stderr, "  %-28s %10.1f\n", name.c_str(), ns);
    sum += ns;
  }
  std::fprintf(stderr, "  %-28s %10.1f\n", "sum of layers", sum);
  if (e2e_rps <= 0) return 0;
  const double e2e = 1e9 / e2e_rps;
  const double coverage = sum / e2e;
  std::fprintf(stderr, "  %-28s %10.1f\n  coverage %.2f\n", "end to end", e2e, coverage);
  if (coverage < 0.8 || coverage > 1.2) {
    const auto binding = std::max_element(stages.begin(), stages.end(),
                                          [](const auto& a, const auto& b) { return a.second < b.second; });
    if (coverage > 1.2) {
      std::fprintf(stderr,
                   "  over-covered: the stages run concurrently; the binding stage is %s at %.1f ns/rec "
                   "(%.0f%% of end to end), so %.1f ns/rec is spent outside its timed calls\n",
                   binding->first.c_str(), binding->second, 100 * binding->second / e2e,
                   e2e - binding->second);
    } else {
      std::fprintf(stderr,
                   "  under-covered: %.1f ns/rec of end to end is outside every timed call; the "
                   "largest stage is %s at %.1f ns/rec\n",
                   e2e - sum, binding->first.c_str(), binding->second);
    }
  }
  return coverage;
}

}  // namespace

int gen_traces(Args& args) {
  const std::string dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const auto files = static_cast<std::size_t>(args.num("files", 16));
  const auto records = static_cast<std::size_t>(args.num("records", 300'000));
  const bool one_pid = args.num("one-pid", 1) != 0;
  args.done();
  const StreamTotals t = write_trace_set(dir, seed, files, records, one_pid);
  Json().count("records", t.records).count("blocks", t.blocks).count("processes", t.processes).print();
  return 0;
}

int layers(Args& args) {
  const std::string dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const auto live_records = static_cast<std::size_t>(args.num("live-records", 1'000'000));
  const std::string offline_dir = args.str("offline-dir");
  StreamTotals want;
  want.records = static_cast<std::uint64_t>(args.num("offline-records", 0));
  want.blocks = static_cast<std::uint64_t>(args.num("offline-blocks", 0));
  want.processes = static_cast<std::uint64_t>(args.num("offline-processes", 0));
  const double zoo_scale = args.real("zoo-scale", 1.0);
  const double live_rps = args.real("live-rps", 0);
  const double report_rps = args.real("report-rps", 0);
  const bool one_pid = args.num("one-pid", 0) != 0;
  const std::string testbed = args.str("testbed", "ssd");
  args.done();
  if (testbed != "ssd" && testbed != "hdd") throw std::runtime_error("--testbed must be ssd or hdd");

  fs::create_directories(dir);
  Figures fig;
  Tracer tr(true);
  const Sink sink(dir + "/sink.sock");

  const LiveFrames frames = live_frames(seed, live_records, one_pid);
  std::vector<double> off_s, on_s;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer off(false);
    off_s.push_back(replay_live(frames, dir + "/live", sink.path(), off, nullptr));
    Tracer on(true);
    const bool last = rep == 2;
    on_s.push_back(replay_live(frames, dir + "/live", sink.path(), last ? tr : on, last ? &fig : nullptr));
  }
  fig.value["trace.overhead_ratio"] = quantile(on_s, 0.5) / quantile(off_s, 0.5);
  replay_windows(frames, tr, fig);
  replay_offline(offline_dir, want, tr, fig);
  replay_zoo(seed, zoo_scale, testbed == "hdd", tr, fig);
  replay_ship(seed, dir, sink.path(), tr, fig);
  tr.write(dir + "/spans.json");

  auto& v = fig.value;
  auto& b = fig.budget;
  const std::vector<std::pair<std::string, double>> live_rows = {
      {"agent: trace.decode", b["trace.decode@agent"]},
      {"agent: agent.aggregate", b["agent.aggregate"]},
      {"agent: trace.spool", b["trace.spool@agent"]},
      {"agent: agent.forward", b["agent.forward"]},
      {"collector: trace.decode", b["trace.decode@collector"]},
      {"collector: collector.ingest", b["collector.ingest"]},
      {"collector: trace.spool", b["trace.spool@collector"]}};
  const double agent_stage = live_rows[0].second + live_rows[1].second + live_rows[2].second + live_rows[3].second;
  const double coll_stage = live_rows[4].second + live_rows[5].second + live_rows[6].second;
  v["budget.live_coverage"] =
      budget("live_fanin", live_rows, live_rps, {{"agent", agent_stage}, {"collector", coll_stage}});
  const std::vector<std::pair<std::string, double>> offline_rows = {
      {"trace.source", v["trace.source_ns_per_rec"]},
      {"metrics.pipeline", v["metrics.pipeline_ns_per_rec"]},
      {"metrics.timeline", v["metrics.timeline_ns_per_rec"]}};
  v["budget.offline_coverage"] =
      budget("offline_report", offline_rows, report_rps,
             {{"bpsio_report", offline_rows[0].second + offline_rows[1].second + offline_rows[2].second}});

  Json json;
  std::string failed;
  for (const auto& f : fig.failed) failed += (failed.empty() ? "\"" : ", \"") + f + "\"";
  json.raw("failed_checks", "[" + failed + "]");
  json.count("live_records", frames.size() * frames.front().size());
  std::string metrics;
  for (const auto& [k, x] : v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g", metrics.empty() ? "" : ", ", k.c_str(), x);
    metrics += buf;
  }
  json.raw("metrics", "{" + metrics + "}");
  json.print();
  return 0;
}

}  // namespace bpsbench
