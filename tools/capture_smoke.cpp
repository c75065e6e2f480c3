// capture_smoke — a plain-POSIX writer with a fully known I/O pattern, for
// exercising libbpsio_capture.so end to end.
//
//   capture_smoke <dir> [procs=4] [writes=200] [bytes=65536]
//                 [--threads=N] [--parent-writes=N] [--read-back]
//   capture_smoke --errno-probe <dir>
//   capture_smoke --bracket-calls=N <dir>
//
// Forks <procs> children. In each, <threads> threads (default 1: the
// child's main thread) each open <dir>/data.<i>.<t>, issue <writes> write()
// calls of <bytes> bytes, fsync(), and close. With --parent-writes=N the
// parent first writes N such calls to <dir>/data.parent, so its records are
// still buffered when it forks, and prints "parent-pid <pid>" once every
// child is reaped. Run it under the preload and every number the analyzer
// should report is known in advance:
//
//   records = procs * threads * writes + parent_writes
//   B       = records * ceil(bytes / block_size)
//   traces  = one file per writing thread: procs * threads, plus one for
//             the parent when it wrote
//
// --read-back doubles the children's records: each thread creates its file
// with creat() or creat64() instead of open(), and after closing it opens
// it again with the two-argument open(), open64(), openat() or openat64()
// (one per child index, in turn) and reads it back with <writes> read(),
// pread() and pread64() calls of <bytes> (at most 65536) bytes, in turn,
// into a stack buffer. Built with -D_FORTIFY_SOURCE=2
// (bpsio_capture_smoke_fortified), those opens and reads are __open_2,
// __open64_2, __openat_2, __openat64_2, __read_chk, __pread_chk and
// __pread64_chk calls, so its trace shows whether capture sees the I/O of
// a fortified program.
//
// tests/test_capture_e2e.cpp and the CI capture-smoke job assert exactly
// that. Deliberately no bpsio library dependencies — the traced program
// stands in for an arbitrary third-party application (cli.hpp is
// standard-library-only, so argument parsing still matches the other
// tools).
#include <fcntl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"

namespace {

/// The --read-back buffer: the largest <bytes> that mode accepts.
constexpr long kReadBackBytes = 65536;

/// Open `path` for writing, under --read-back with creat() or creat64()
/// by `variant`.
int create_file(const std::string& path, bool read_back, int variant) {
  if (!read_back) return ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  return variant % 2 == 0 ? ::creat(path.c_str(), 0644)
                          : ::creat64(path.c_str(), 0644);
}

/// write() until all `size` bytes are written; false on an error.
bool write_all(int fd, const void* data, std::size_t size) {
  const char* at = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t wrote = ::write(fd, at, size);
    if (wrote < 0) return false;
    at += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return true;
}

/// Open `path`, issue `writes` full writes of `bytes` bytes, fsync, close.
int write_file(const std::string& path, long writes, long bytes,
               bool read_back = false, int variant = 0) {
  const int fd = create_file(path, read_back, variant);
  if (fd < 0) {
    std::fprintf(stderr, "capture_smoke: open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  const std::vector<char> buf(static_cast<std::size_t>(bytes), 'b');
  for (long i = 0; i < writes; ++i) {
    if (!write_all(fd, buf.data(), buf.size())) {
      std::fprintf(stderr, "capture_smoke: write %s: %s\n", path.c_str(),
                   std::strerror(errno));
      ::close(fd);
      return 1;
    }
  }
  if (::fsync(fd) != 0) {
    std::fprintf(stderr, "capture_smoke: fsync %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }
  return ::close(fd) == 0 ? 0 : 1;
}

/// --read-back: open `path` again with the two-argument open, open64,
/// openat or openat64 by `variant`, and read it back with `reads` calls of
/// `bytes` bytes, read(), pread() and pread64() in turn.
int read_file(const std::string& path, long reads, long bytes, int variant) {
  // Flags and a count read through volatiles are unknown at compile time,
  // as a program that computes them would pass them: a fortified build
  // then calls __open_2 (and its siblings) and the _chk reads.
  const volatile int flags = O_RDONLY;
  const volatile long count = bytes;
  int fd = -1;
  switch (variant % 4) {
    case 0: fd = ::open(path.c_str(), flags); break;
    case 1: fd = ::open64(path.c_str(), flags); break;
    case 2: fd = ::openat(AT_FDCWD, path.c_str(), flags); break;
    default: fd = ::openat64(AT_FDCWD, path.c_str(), flags); break;
  }
  if (fd < 0) {
    std::fprintf(stderr, "capture_smoke: reopen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  char chunk[kReadBackBytes];
  for (long i = 0; i < reads; ++i) {
    const auto size = static_cast<std::size_t>(count);
    const off_t offset = i * bytes;
    ssize_t got = 0;
    switch (i % 3) {
      case 0: got = ::read(fd, chunk, size); break;
      case 1: got = ::pread(fd, chunk, size, offset); break;
      default: got = ::pread64(fd, chunk, size, offset); break;
    }
    if (got != static_cast<ssize_t>(size)) {
      std::fprintf(stderr, "capture_smoke: read %s: %zd of %zu bytes\n",
                   path.c_str(), got, size);
      ::close(fd);
      return 1;
    }
  }
  return ::close(fd) == 0 ? 0 : 1;
}

int run_child(const std::string& dir, int index, long threads, long writes,
              long bytes, bool read_back) {
  const auto run = [&](long thread) {
    const std::string path = dir + "/data." + std::to_string(index) + "." +
                             std::to_string(thread);
    if (write_file(path, writes, bytes, read_back, index) != 0) return 1;
    return read_back ? read_file(path, writes, bytes, index) : 0;
  };
  if (threads == 1) return run(0);
  std::vector<int> results(static_cast<std::size_t>(threads), 1);
  std::vector<std::thread> workers;
  for (long t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { results[static_cast<std::size_t>(t)] = run(t); });
  }
  for (std::thread& worker : workers) worker.join();
  for (const int rc : results) {
    if (rc != 0) return 1;
  }
  return 0;
}

/// An fd opened by the raw openat syscall, which no wrapper sees: the
/// interposer holds no record verdict for it and records none of its I/O.
int open_untracked(const std::string& path) {
  return static_cast<int>(::syscall(SYS_openat, AT_FDCWD, path.c_str(),
                                    O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                                    0644));
}

std::int64_t monotonic_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Issue `calls` 4 KiB preads of `fd`, each between two CLOCK_MONOTONIC
/// reads appended to `brackets`, pausing 30 ms after every 10,000th.
bool bracketed_preads(int fd, long calls, std::vector<std::int64_t>& brackets) {
  char page[4096];
  for (long i = 1; i <= calls; ++i) {
    const std::int64_t before = monotonic_now();
    const ssize_t got = ::pread(fd, page, sizeof page, 0);
    const std::int64_t after = monotonic_now();
    if (got != static_cast<ssize_t>(sizeof page)) return false;
    brackets.push_back(before);
    brackets.push_back(after);
    if (i % 10'000 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  return true;
}

/// The calling thread's brackets, to <dir>/brackets.<pid>.<tid>.
bool save_brackets(const std::string& dir,
                   const std::vector<std::int64_t>& brackets) {
  const std::string path = dir + "/brackets." + std::to_string(::getpid()) +
                           "." + std::to_string(::gettid());
  const int fd = open_untracked(path);
  if (fd < 0) return false;
  const bool wrote = write_all(fd, brackets.data(),
                               brackets.size() * sizeof(std::int64_t));
  return ::close(fd) == 0 && wrote;
}

/// --bracket-calls=N: the timestamp check. Two threads each issue N
/// page-cached 4 KiB preads of <dir>/bracket.dat, each between the thread's
/// own CLOCK_MONOTONIC reads, and pause 30 ms after every 10,000 calls,
/// longer than one of the interposer's tick segments. Halfway through, the
/// first thread forks a child that issues N / 10 such calls and exits.
/// Each of the three writes its brackets, a (before, after) pair of int64
/// ns per call in call order, to <dir>/brackets.<pid>.<tid> through an
/// untracked fd, so every record of its trace file must lie inside the
/// bracket at the same index.
int run_bracket_calls(const std::string& dir, long calls) {
  const std::string data = dir + "/bracket.dat";
  const std::vector<char> page(4096, 'k');
  const int out = open_untracked(data);
  if (out < 0 || !write_all(out, page.data(), page.size()) ||
      ::close(out) != 0) {
    std::fprintf(stderr, "capture_smoke: write %s: %s\n", data.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::vector<int> results(2, 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      const int fd = ::open(data.c_str(), O_RDONLY);
      if (fd < 0) return;
      std::vector<std::int64_t> brackets;
      brackets.reserve(static_cast<std::size_t>(2 * calls));
      bool ok = bracketed_preads(fd, calls / 2, brackets);
      if (ok && t == 0) {
        const pid_t child = ::fork();
        if (child == 0) {
          std::vector<std::int64_t> own;
          std::exit(bracketed_preads(fd, calls / 10, own) &&
                            save_brackets(dir, own)
                        ? 0
                        : 1);
        }
        int status = 0;
        ok = child > 0 && ::waitpid(child, &status, 0) == child &&
             WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ok = ok && bracketed_preads(fd, calls - calls / 2, brackets) &&
           save_brackets(dir, brackets);
      results[static_cast<std::size_t>(t)] = ::close(fd) == 0 && ok ? 0 : 1;
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const int rc : results) {
    if (rc != 0) {
      std::fprintf(stderr, "capture_smoke: a bracketed thread failed\n");
      return 1;
    }
  }
  return 0;
}

/// --errno-probe: regression check for the interposer's errno contract
/// (src/capture/interpose.cpp "Preserve errno" ground rule, enforced
/// statically by bpsio_analyze's errno-preservation check). Run under the
/// preload with capture enabled, every interposed call below goes through
/// the full record path; successful calls must leave a planted sentinel
/// errno untouched, and failing calls must surface exactly the real
/// syscall's errno.
int run_errno_probe(const std::string& dir) {
  // EXDEV: a real errno value no call in this probe can legitimately set.
  const int sentinel = EXDEV;
  int failures = 0;
  const auto expect_errno = [&failures](int want, const char* what) {
    if (errno != want) {
      std::fprintf(stderr, "errno-probe: %s: errno=%d want %d\n", what, errno,
                   want);
      ++failures;
    }
  };

  char buf[4096];
  std::memset(buf, 'e', sizeof buf);
  const std::string rw_path = dir + "/errno-probe.dat";
  errno = sentinel;
  const int fd = ::open(rw_path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "errno-probe: open %s: %s\n", rw_path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  expect_errno(sentinel, "successful open clobbered errno");

  errno = sentinel;
  if (::write(fd, buf, sizeof buf) != static_cast<ssize_t>(sizeof buf)) {
    std::fprintf(stderr, "errno-probe: write failed unexpectedly\n");
    ++failures;
  }
  expect_errno(sentinel, "successful write clobbered errno");

  errno = sentinel;
  if (::pwrite(fd, buf, sizeof buf, 0) != static_cast<ssize_t>(sizeof buf)) {
    std::fprintf(stderr, "errno-probe: pwrite failed unexpectedly\n");
    ++failures;
  }
  expect_errno(sentinel, "successful pwrite clobbered errno");

  errno = sentinel;
  if (::pread(fd, buf, sizeof buf, 0) != static_cast<ssize_t>(sizeof buf)) {
    std::fprintf(stderr, "errno-probe: pread failed unexpectedly\n");
    ++failures;
  }
  expect_errno(sentinel, "successful pread clobbered errno");

  errno = sentinel;
  if (::fsync(fd) != 0) {
    std::fprintf(stderr, "errno-probe: fsync failed unexpectedly\n");
    ++failures;
  }
  expect_errno(sentinel, "successful fsync clobbered errno");

  // Failing calls: the host must observe exactly the real syscall's errno.
  // read() on a write-only fd and write() on a read-only fd are EBADF.
  const std::string wr_path = dir + "/errno-probe.wr";
  const int wfd = ::open(wr_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (wfd < 0) {
    std::fprintf(stderr, "errno-probe: open %s: %s\n", wr_path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  errno = 0;
  if (::read(wfd, buf, sizeof buf) != -1) {
    std::fprintf(stderr, "errno-probe: read on O_WRONLY fd succeeded\n");
    ++failures;
  }
  expect_errno(EBADF, "failed read did not surface EBADF");

  const int rfd = ::open(rw_path.c_str(), O_RDONLY);
  if (rfd < 0) {
    std::fprintf(stderr, "errno-probe: reopen %s: %s\n", rw_path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  errno = 0;
  if (::write(rfd, buf, sizeof buf) != -1) {
    std::fprintf(stderr, "errno-probe: write on O_RDONLY fd succeeded\n");
    ++failures;
  }
  expect_errno(EBADF, "failed write did not surface EBADF");

  errno = sentinel;
  if (::close(rfd) != 0 || ::close(wfd) != 0 || ::close(fd) != 0) {
    std::fprintf(stderr, "errno-probe: close failed unexpectedly\n");
    ++failures;
  }
  expect_errno(sentinel, "successful close clobbered errno");

  if (failures > 0) {
    std::fprintf(stderr, "errno-probe: %d failure(s)\n", failures);
    return 1;
  }
  std::puts("errno-probe: ok");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bpsio::cli::ArgParser parser(
      "capture_smoke",
      "Known-pattern POSIX writer for exercising libbpsio_capture.so:\n"
      "forks <procs> children, each writing <writes> x <bytes> from each of "
      "<threads> threads to <dir>/data.<i>.<t>.");
  parser.positionals("<dir> [procs=4] [writes=200] [bytes=65536]");
  bool errno_probe = false;
  parser.add_flag("--errno-probe", &errno_probe,
                  "run the errno-preservation probe in <dir> instead of the "
                  "known-pattern writer");
  long long threads = 1;
  parser.add_int("--threads", &threads, 1, 64, "N",
                 "writing threads per child, one file each (default 1)");
  long long parent_writes = 0;
  parser.add_int("--parent-writes", &parent_writes, 0, 1'000'000, "N",
                 "writes the parent issues to <dir>/data.parent before "
                 "forking (default 0)");
  bool read_back = false;
  parser.add_flag("--read-back", &read_back,
                  "create each file with creat/creat64 and read it back "
                  "through the two-argument opens and read/pread/pread64");
  long long bracket_calls = 0;
  parser.add_int("--bracket-calls", &bracket_calls, 0, 1'000'000, "N",
                 "instead of writing, bracket N preads in each of two "
                 "threads with the program's own clock reads and save the "
                 "brackets in <dir> (default 0: off)");
  std::vector<std::string> args;
  switch (parser.parse(argc, argv, args)) {
    case bpsio::cli::ArgParser::Outcome::ok:
      break;
    case bpsio::cli::ArgParser::Outcome::help:
      return 0;
    case bpsio::cli::ArgParser::Outcome::error:
      return 2;
  }
  if (args.empty() || args.size() > 4) {
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }
  if (errno_probe) {
    if (args.size() != 1) {
      std::fputs(parser.usage().c_str(), stderr);
      return 2;
    }
    return run_errno_probe(args[0]);
  }
  if (bracket_calls > 0) {
    if (args.size() != 1) {
      std::fputs(parser.usage().c_str(), stderr);
      return 2;
    }
    return run_bracket_calls(args[0], static_cast<long>(bracket_calls));
  }
  const std::string dir = args[0];
  const long procs = args.size() > 1 ? std::strtol(args[1].c_str(), nullptr, 10) : 4;
  const long writes = args.size() > 2 ? std::strtol(args[2].c_str(), nullptr, 10) : 200;
  const long bytes = args.size() > 3 ? std::strtol(args[3].c_str(), nullptr, 10) : 65536;
  if (procs < 1 || writes < 1 || bytes < 1) {
    std::fprintf(stderr, "capture_smoke: all counts must be >= 1\n");
    return 2;
  }
  if (read_back && bytes > kReadBackBytes) {
    std::fprintf(stderr, "capture_smoke: --read-back takes bytes <= %ld\n",
                 kReadBackBytes);
    return 2;
  }

  if (parent_writes > 0 &&
      write_file(dir + "/data.parent", static_cast<long>(parent_writes),
                 bytes) != 0) {
    return 1;
  }

  std::vector<pid_t> children;
  for (long i = 0; i < procs; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "capture_smoke: fork: %s\n", std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      std::exit(run_child(dir, static_cast<int>(i), static_cast<long>(threads),
                          writes, bytes, read_back));
    }
    children.push_back(pid);
  }

  int failures = 0;
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "capture_smoke: %d child(ren) failed\n", failures);
    return 1;
  }
  if (parent_writes > 0) {
    std::printf("parent-pid %ld\n", static_cast<long>(::getpid()));
  }
  return 0;
}
