// capture-app: the traced application of the capture_smallio workload.
//
// Runs under LD_PRELOAD=libbpsio_capture.so. Each thread owns one
// page-cached file and issues a seeded 70/30 mix of 4 KiB pread/pwrite in
// batches. Bare and captured batches alternate inside the same thread and
// replay the same offsets: a captured batch calls pread/pwrite through the
// interposer, a bare batch calls libc's own pread64/pwrite64 looked up in
// the already-loaded libc (dlopen RTLD_NOLOAD), which bypasses it. The
// per-pair difference is capture's per-call cost with host drift cancelled;
// which arm goes first alternates from pair to pair.
#include <dlfcn.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "commands.hpp"
#include "util.hpp"

namespace bpsbench {
namespace {

using PreadFn = ssize_t (*)(int, void*, size_t, off_t);
using PwriteFn = ssize_t (*)(int, const void*, size_t, off_t);

constexpr std::size_t kIoBytes = 4096;
constexpr std::size_t kBatch = 256;     // calls per batch; a pair is two batches
constexpr double kReadShare = 0.7;      // 70/30 pread/pwrite

struct ThreadResult {
  std::uint64_t captured = 0;
  std::vector<double> pair_overhead_ns;    ///< per pair: captured - bare, per call
  std::vector<double> pair_overhead_pct;   ///< per pair: (captured - bare) / bare, in %
  std::vector<double> bare_call_ns;        ///< per pair: bare batch time per call
  std::vector<std::uint32_t> captured_ns;  ///< every captured call, timed alone
  std::vector<std::uint32_t> bare_ns;      ///< every bare call, timed alone
  std::string error;
};

struct Op {
  off_t offset;
  bool write;
};

void run_thread(const std::string& path, std::uint64_t seed,
                std::int64_t deadline_ns, PreadFn bare_pread, PwriteFn bare_pwrite,
                ThreadResult& out) {
  const int fd = ::open(path.c_str(), O_RDWR);  // interposed: fd is tracked
  if (fd < 0) {
    out.error = "cannot open " + path;
    return;
  }
  const off_t pages = ::lseek(fd, 0, SEEK_END) / static_cast<off_t>(kIoBytes);
  if (pages <= 0) {
    out.error = path + " is empty";
    ::close(fd);
    return;
  }
  alignas(4096) static thread_local char buf[kIoBytes];
  std::memset(buf, 'b', sizeof buf);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<off_t> page(0, pages - 1);
  std::bernoulli_distribution is_read(kReadShare);
  std::vector<Op> ops(kBatch);
  std::vector<std::uint32_t> call_ns(kBatch);
  out.captured_ns.reserve(1 << 22);
  out.bare_ns.reserve(1 << 22);

  // One batch; returns its wall time. Both arms time every call into the
  // same preallocated array, so the timer and the store cancel in the pair
  // difference; each arm's times are kept after the batch timer stops.
  const auto run_batch = [&](bool captured) {
    const std::int64_t t_begin = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Op& op = ops[i];
      const std::int64_t t0 = now_ns();
      ssize_t n;
      if (captured) {
        n = op.write ? ::pwrite(fd, buf, kIoBytes, op.offset)
                     : ::pread(fd, buf, kIoBytes, op.offset);
      } else {
        n = op.write ? bare_pwrite(fd, buf, kIoBytes, op.offset)
                     : bare_pread(fd, buf, kIoBytes, op.offset);
      }
      call_ns[i] = static_cast<std::uint32_t>(now_ns() - t0);
      if (n != static_cast<ssize_t>(kIoBytes)) out.error = "short or failed I/O on " + path;
    }
    const std::int64_t wall = now_ns() - t_begin;
    if (captured) out.captured += kBatch;
    auto& kept = captured ? out.captured_ns : out.bare_ns;
    kept.insert(kept.end(), call_ns.begin(), call_ns.end());
    return wall;
  };

  for (std::uint64_t pair = 0; now_ns() < deadline_ns && out.error.empty(); ++pair) {
    for (Op& op : ops) {
      op.offset = page(rng) * static_cast<off_t>(kIoBytes);
      op.write = !is_read(rng);
    }
    const bool captured_first = (pair % 2) == 1;
    const std::int64_t first = run_batch(captured_first);
    const std::int64_t second = run_batch(!captured_first);
    const std::int64_t captured_ns = captured_first ? first : second;
    const std::int64_t bare_ns = captured_first ? second : first;
    out.pair_overhead_ns.push_back(static_cast<double>(captured_ns - bare_ns) /
                                   static_cast<double>(kBatch));
    out.pair_overhead_pct.push_back(100.0 * static_cast<double>(captured_ns - bare_ns) /
                                    static_cast<double>(bare_ns));
    out.bare_call_ns.push_back(static_cast<double>(bare_ns) / static_cast<double>(kBatch));
  }
  ::close(fd);
}

}  // namespace

int capture_app(Args& args) {
  const std::string files = args.str("files");
  const double seconds = args.real("seconds", 2.0);
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  args.done();

  void* libc = ::dlopen("libc.so.6", RTLD_NOLOAD | RTLD_LAZY);
  if (libc == nullptr) throw std::runtime_error("libc.so.6 is not loaded");
  const auto bare_pread = reinterpret_cast<PreadFn>(::dlsym(libc, "pread64"));
  const auto bare_pwrite = reinterpret_cast<PwriteFn>(::dlsym(libc, "pwrite64"));
  if (bare_pread == nullptr || bare_pwrite == nullptr) {
    throw std::runtime_error("libc pread64/pwrite64 not found");
  }

  std::vector<std::string> paths;
  std::stringstream split(files);
  for (std::string p; std::getline(split, p, ',');) paths.push_back(p);

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<ThreadResult> results(paths.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < paths.size(); ++t) {
      threads.emplace_back(run_thread, paths[t], seed * 7919 + t, deadline,
                           bare_pread, bare_pwrite, std::ref(results[t]));
    }
  }

  Json json;
  std::string counts;
  std::uint64_t captured = 0;
  std::vector<double> overhead, overhead_pct, bare;
  std::vector<std::uint32_t> calls, bare_calls;
  for (const ThreadResult& r : results) {
    if (!r.error.empty()) throw std::runtime_error(r.error);
    counts += (counts.empty() ? "" : ", ") + std::to_string(r.captured);
    captured += r.captured;
    overhead.insert(overhead.end(), r.pair_overhead_ns.begin(), r.pair_overhead_ns.end());
    overhead_pct.insert(overhead_pct.end(), r.pair_overhead_pct.begin(), r.pair_overhead_pct.end());
    bare.insert(bare.end(), r.bare_call_ns.begin(), r.bare_call_ns.end());
    calls.insert(calls.end(), r.captured_ns.begin(), r.captured_ns.end());
    bare_calls.insert(bare_calls.end(), r.bare_ns.begin(), r.bare_ns.end());
  }
  json.raw("captured_per_thread", "[" + counts + "]")
      .count("captured_calls", captured)
      .count("pairs", overhead.size())
      .num("overhead_ns", quantile(overhead, 0.5))
      .num("overhead_pct", quantile(overhead_pct, 0.5))
      .num("bare_call_ns", quantile(bare, 0.5))
      .num("call_p50_ns", quantile(calls, 0.5))
      .num("call_p99_ns", quantile(calls, 0.99))
      .num("bare_call_p99_ns", quantile(bare_calls, 0.99));
  json.print();
  return 0;
}

}  // namespace bpsbench
