// fanin: the load generator of the live_fanin workload.
//
// Ships BPSF frames (trace::encode_frame) of the seeded zoo-derived stream
// over two Unix-socket connections into bpsio_agentd (which forwards to
// bpsio_collectord), while a scraper thread polls the collector's /metrics
// for bpsio_records_total{tenant="all"}.
//
//   phase A  closed loop: each connection sends its share of
//            --phase-a-records as fast as blocking sends allow. live_rps is
//            the rate at which the collector's count rises across phase A
//            (see visible_rate). Scrapes are 50 ms apart here: each one
//            copies the collector's windows, which grow with phase A.
//   phase B  open loop at --rate records/s in --frame-b record frames; each
//            frame's latest record end is its due time and it is sent then.
//            Freshness of a frame is the first scrape that counts it minus
//            its due time (all samples are printed, so a caller can pool
//            several runs); lateness is the send time minus the due time.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "commands.hpp"
#include "stream.hpp"
#include "trace/frame.hpp"
#include "util.hpp"

namespace bpsbench {
namespace {

using bpsio::trace::IoRecord;

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

void send_all(int fd, const std::vector<char>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send to the agent failed");
    off += static_cast<std::size_t>(n);
  }
}

/// GET /metrics from 127.0.0.1:port; returns the value of `series` or -1.
long long scrape(int port, const char* series) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  long long value = -1;
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    static const char kRequest[] = "GET /metrics HTTP/1.0\r\n\r\n";
    std::string body;
    if (::send(fd, kRequest, sizeof kRequest - 1, MSG_NOSIGNAL) > 0) {
      char buf[16384];
      for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) body.append(buf, static_cast<std::size_t>(n));
    }
    const std::string key = std::string("\n") + series + " ";
    const auto at = body.find(key);
    if (at != std::string::npos) value = std::stoll(body.substr(at + key.size()));
  }
  if (fd >= 0) ::close(fd);
  return value;
}

std::string fresh_list(const std::vector<double>& ms) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.3f", i ? ", " : "", ms[i]);
    out += buf;
  }
  return out + "]";
}

struct Scrape {
  std::int64_t t_ns;
  long long records;
};

/// Records/s at which the collector made phase A visible: the least-squares
/// slope of count over time across the scrapes that saw 10% to 90% of it.
/// Neither the start-up nor the scrape that first shows the last record
/// (quantized to the scrape period) decides the figure. A phase A too
/// short for three such scrapes falls back to the end points.
double visible_rate(const std::vector<Scrape>& scrapes, long long total,
                    std::int64_t start_ns, std::int64_t visible_ns) {
  std::vector<const Scrape*> mid;
  for (const Scrape& s : scrapes) {
    if (s.records * 10 >= total && s.records * 10 <= total * 9) mid.push_back(&s);
  }
  if (mid.size() < 3) {
    return static_cast<double>(total) / (static_cast<double>(visible_ns - start_ns) / 1e9);
  }
  double st = 0, sn = 0;
  for (const Scrape* s : mid) {
    st += static_cast<double>(s->t_ns - start_ns) / 1e9;
    sn += static_cast<double>(s->records);
  }
  const double n = static_cast<double>(mid.size());
  const double mt = st / n, mn = sn / n;
  double cov = 0, var = 0;
  for (const Scrape* s : mid) {
    const double dt = static_cast<double>(s->t_ns - start_ns) / 1e9 - mt;
    cov += dt * (static_cast<double>(s->records) - mn);
    var += dt * dt;
  }
  return cov / var;
}

}  // namespace

int fanin(Args& args) {
  const std::string socket_path = args.str("agent-socket");
  const int port = static_cast<int>(args.num("collector-port", 0));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const auto a_records = static_cast<std::size_t>(args.num("phase-a-records", 500'000));
  const double b_seconds = args.real("phase-b-seconds", 3.0);
  const double rate = args.real("rate", 200'000);
  const auto b_frame = static_cast<std::size_t>(args.num("frame-b", 256));
  const std::int64_t setup_reps = std::max<std::int64_t>(1, args.num("setup-reps", 1));
  const bool one_pid = args.num("one-pid", 0) != 0;
  args.done();
  constexpr std::size_t kLanes = 2;
  constexpr std::size_t a_frame = 4096;  // a capture client's default buffer
  // Scrape period: phase B's is short next to freshness, long next to a
  // render; phase A's keeps the scrapes' window copies off the ingest path.
  std::atomic<int> scrape_period_ms{50};
  constexpr char kSeries[] = "bpsio_records_total{tenant=\"all\"}";

  // Set-up: the lanes (nine zoo plans) and phase A's frames, pre-generated
  // so the sender threads only re-stamp, encode and send. Built
  // --setup-reps times (the last one is used); setup_s is the median.
  std::vector<Lane> lanes;
  std::unique_ptr<ClosedLoopStream> built;
  std::vector<double> setup_times;
  for (std::int64_t rep = 0; rep < setup_reps; ++rep) {
    const std::int64_t t0 = now_ns();
    lanes = make_lanes(seed, kLanes, one_pid);
    built = std::make_unique<ClosedLoopStream>(lanes, a_frame, kClosedLoopGapNs);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const ClosedLoopStream& closed = *built;
  const std::int64_t a_window = closed.window_ns();
  const double setup_s = quantile(setup_times, 0.5);

  std::vector<int> fds;
  for (std::size_t l = 0; l < kLanes; ++l) fds.push_back(connect_unix(socket_path));

  std::atomic<long long> visible{0};
  std::atomic<std::int64_t> visible_at{0};
  std::vector<Scrape> scrapes;
  std::jthread scraper([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      // A scrape's time is the midpoint of its request and response: the
      // count it returns was rendered somewhere in between.
      const std::int64_t t_req = now_ns();
      const long long n = scrape(port, kSeries);
      const std::int64_t t = t_req + (now_ns() - t_req) / 2;
      if (n >= 0) {
        scrapes.push_back({t, n});
        visible_at.store(t);
        visible.store(n);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(scrape_period_ms.load()));
    }
  });
  // A sender that fails records why; the main thread rethrows after join.
  std::mutex error_mu;
  std::string error;
  const auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      std::lock_guard lock(error_mu);
      error = e.what();
    }
  };
  const auto check_senders = [&] {
    std::lock_guard lock(error_mu);
    if (!error.empty()) throw std::runtime_error(error);
  };
  const auto wait_visible = [&](long long target) {
    const std::int64_t give_up = now_ns() + 60'000'000'000;
    while (visible.load() < target) {
      if (now_ns() > give_up) throw std::runtime_error("records never became visible");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return visible_at.load();
  };

  std::uint64_t sent_blocks = 0;
  std::mutex blocks_mu;

  // Phase A: closed loop.
  const std::int64_t a_start = now_ns();
  const std::size_t a_frames = (a_records / kLanes + a_frame - 1) / a_frame;
  std::int64_t a_last_end = 0;
  {
    std::vector<std::jthread> senders;
    for (std::size_t l = 0; l < kLanes; ++l) {
      senders.emplace_back([&, l] { guarded([&] {
        std::vector<char> wire;
        std::vector<IoRecord> frame;
        std::uint64_t blocks = 0;
        for (std::size_t f = 0; f < a_frames; ++f) {
          closed.frame(l, f, a_start, frame);
          for (const IoRecord& r : frame) blocks += r.blocks;
          wire.clear();
          bpsio::trace::encode_frame(frame, wire);
          send_all(fds[l], wire);
        }
        std::lock_guard lock(blocks_mu);
        sent_blocks += blocks;
      }); });
    }
  }
  check_senders();
  a_last_end = a_start + static_cast<std::int64_t>(a_frames) * a_window;
  const long long a_sent = static_cast<long long>(a_frames * a_frame * kLanes);
  const std::int64_t a_sent_done = now_ns();
  const std::int64_t a_visible = wait_visible(a_sent);
  scrape_period_ms.store(10);

  // Phase B: open loop. Lane l's frame k is due at b_start + (k + 1 + l/2) W.
  const double lane_rate = rate / static_cast<double>(kLanes);
  const auto b_window = static_cast<std::int64_t>(static_cast<double>(b_frame) / lane_rate * 1e9);
  const auto b_frames = static_cast<std::size_t>(b_seconds * 1e9 / static_cast<double>(b_window));
  const std::int64_t b_start = std::max(now_ns() + 20'000'000, a_last_end + 1'000'000);
  std::vector<std::vector<std::int64_t>> due(kLanes), late(kLanes);
  {
    std::vector<std::jthread> senders;
    for (std::size_t l = 0; l < kLanes; ++l) {
      senders.emplace_back([&, l] { guarded([&] {
        std::vector<char> wire;
        std::vector<IoRecord> frame;
        std::uint64_t blocks = 0;
        const std::int64_t lane_start = b_start + static_cast<std::int64_t>(l) * b_window / static_cast<std::int64_t>(kLanes);
        for (std::size_t k = 0; k < b_frames; ++k) {
          const std::int64_t t = lane_start + static_cast<std::int64_t>(k) * b_window;
          frame.clear();
          lanes[l].frame(t, b_window, b_frame, frame);
          for (const IoRecord& r : frame) blocks += r.blocks;
          wire.clear();
          bpsio::trace::encode_frame(frame, wire);
          const std::int64_t due_ns = t + b_window;
          timespec ts{static_cast<time_t>(due_ns / 1'000'000'000), static_cast<long>(due_ns % 1'000'000'000)};
          while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
          }
          late[l].push_back(now_ns() - due_ns);
          send_all(fds[l], wire);
          due[l].push_back(due_ns);
        }
        std::lock_guard lock(blocks_mu);
        sent_blocks += blocks;
      }); });
    }
  }
  check_senders();
  const long long total_sent = a_sent + static_cast<long long>(b_frames * b_frame * kLanes);
  wait_visible(total_sent);
  scraper.request_stop();
  scraper.join();
  for (int fd : fds) ::close(fd);
  const double live_rps = visible_rate(scrapes, a_sent, a_start, a_visible);

  // Freshness: frames in due order; frame i is counted once the visible
  // total reaches phase A plus every frame due up to it.
  std::vector<std::int64_t> all_due;
  std::int64_t late_max = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    all_due.insert(all_due.end(), due[l].begin(), due[l].end());
    for (std::int64_t x : late[l]) late_max = std::max(late_max, x);
  }
  std::sort(all_due.begin(), all_due.end());
  std::vector<double> fresh_ms;
  std::size_t s = 0;
  for (std::size_t i = 0; i < all_due.size(); ++i) {
    const long long need = a_sent + static_cast<long long>((i + 1) * b_frame);
    while (s < scrapes.size() && scrapes[s].records < need) ++s;
    if (s == scrapes.size()) throw std::runtime_error("a phase B frame never became visible");
    fresh_ms.push_back(static_cast<double>(scrapes[s].t_ns - all_due[i]) / 1e6);
  }

  Json json;
  json.count("sent_records", static_cast<std::uint64_t>(total_sent))
      .count("sent_blocks", sent_blocks)
      .count("phase_a_records", static_cast<std::uint64_t>(a_sent))
      .num("live_rps", live_rps)
      .num("backlog_ms", static_cast<double>(a_visible - a_sent_done) / 1e6)
      .num("fresh_p50_ms", quantile(fresh_ms, 0.5))
      .num("fresh_p99_ms", quantile(fresh_ms, 0.99))
      .count("fresh_samples", fresh_ms.size())
      .num("late_ms_max", static_cast<double>(late_max) / 1e6)
      .count("scrapes", scrapes.size())
      .raw("fresh_ms", fresh_list(fresh_ms))
      .num("setup_s", setup_s);
  json.print();
  return 0;
}

}  // namespace bpsbench
