// capture_smoke — a plain-POSIX writer with a fully known I/O pattern, for
// exercising libbpsio_capture.so end to end.
//
//   capture_smoke <dir> [procs=4] [writes=200] [bytes=65536]
//                 [--threads=N] [--parent-writes=N]
//   capture_smoke --errno-probe <dir>
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
// tests/test_capture_e2e.cpp and the CI capture-smoke job assert exactly
// that. Deliberately no bpsio library dependencies — the traced program
// stands in for an arbitrary third-party application (cli.hpp is
// standard-library-only, so argument parsing still matches the other
// tools).
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"

namespace {

/// Open `path`, issue `writes` full writes of `bytes` bytes, fsync, close.
int write_file(const std::string& path, long writes, long bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "capture_smoke: open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  const std::vector<char> buf(static_cast<std::size_t>(bytes), 'b');
  for (long i = 0; i < writes; ++i) {
    const char* data = buf.data();
    std::size_t left = buf.size();
    while (left > 0) {
      const ssize_t wrote = ::write(fd, data, left);
      if (wrote < 0) {
        std::fprintf(stderr, "capture_smoke: write %s: %s\n", path.c_str(),
                     std::strerror(errno));
        ::close(fd);
        return 1;
      }
      data += wrote;
      left -= static_cast<std::size_t>(wrote);
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

int run_child(const std::string& dir, int index, long threads, long writes,
              long bytes) {
  const auto path = [&](long thread) {
    return dir + "/data." + std::to_string(index) + "." +
           std::to_string(thread);
  };
  if (threads == 1) return write_file(path(0), writes, bytes);
  std::vector<int> results(static_cast<std::size_t>(threads), 1);
  std::vector<std::thread> workers;
  for (long t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = write_file(path(t), writes, bytes);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const int rc : results) {
    if (rc != 0) return 1;
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
  const std::string dir = args[0];
  const long procs = args.size() > 1 ? std::strtol(args[1].c_str(), nullptr, 10) : 4;
  const long writes = args.size() > 2 ? std::strtol(args[2].c_str(), nullptr, 10) : 200;
  const long bytes = args.size() > 3 ? std::strtol(args[3].c_str(), nullptr, 10) : 65536;
  if (procs < 1 || writes < 1 || bytes < 1) {
    std::fprintf(stderr, "capture_smoke: all counts must be >= 1\n");
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
                          writes, bytes));
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
