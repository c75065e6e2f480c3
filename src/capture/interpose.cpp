// LD_PRELOAD interposer over the POSIX I/O family — the paper's capture
// point, realized: "the I/O function library is modified to record the
// information of each I/O access" (Section III.B), except nothing is
// modified — the dynamic linker resolves open/read/write/... (and the
// _FORTIFY_SOURCE variants __open_2/__read_chk/...) to the wrappers below,
// which stamp the real call's start and end and store a 32-byte IoRecord
// through a per-thread cursor into a lock-free per-thread buffer. The
// stamps are TSC ticks where the kernel keeps time with the TSC, mapped to
// CLOCK_MONOTONIC ns one segment at a time before the records leave the
// thread (tick_segment.hpp), and CLOCK_MONOTONIC ns elsewhere. Full buffers
// ship to bpsio_agentd or spill to per-thread .bpstrace v2 files through
// SpillWriter; every spill ends in a header checkpoint, so a traced process
// that dies without running atexit still leaves a readable trace.
//
// Ground rules for code in this file (it runs inside OTHER PEOPLE'S
// processes):
//
//  * Never abort the host. No BPSIO_CHECK, no exceptions escaping a
//    wrapper, no exit on error — a broken output directory degrades to
//    passthrough with one stderr warning.
//  * Preserve errno. The host application's error handling reads errno
//    after every call we wrap; the capture bookkeeping must be invisible.
//  * Guard against self-recording. SpillWriter's own open/write/close
//    land back in these wrappers (libstdc++ ofstream calls the PLT like
//    everyone else); a thread_local reentrancy depth drops them.
//  * No locks on the hot path. Each thread owns its buffer and its
//    writer outright; the only shared mutable state is atomics (the
//    runtime pointer, the cached pid, the fd-verdict table).
//
// Scope: only PLT calls to libc-exported symbols are interposable.
// glibc-internal I/O (the loader, stdio's internal syscalls when the
// host was linked -static) bypasses us — DESIGN.md §9 spells out the
// boundary.
#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "capture/capture_config.hpp"
#include "capture/record_shipper.hpp"
#include "capture/tick_segment.hpp"
#include "common/wallclock.hpp"
#include "trace/io_record.hpp"

namespace bpsio::capture {
namespace {

using ReadFn = ssize_t (*)(int, void*, size_t);
using WriteFn = ssize_t (*)(int, const void*, size_t);
using PreadFn = ssize_t (*)(int, void*, size_t, off_t);
using PwriteFn = ssize_t (*)(int, const void*, size_t, off_t);
using Pread64Fn = ssize_t (*)(int, void*, size_t, off64_t);
using Pwrite64Fn = ssize_t (*)(int, const void*, size_t, off64_t);
using OpenFn = int (*)(const char*, int, mode_t);
using OpenatFn = int (*)(int, const char*, int, mode_t);
using Open2Fn = int (*)(const char*, int);
using Openat2Fn = int (*)(int, const char*, int);
using CreatFn = int (*)(const char*, mode_t);
using CloseFn = int (*)(int);
using FsyncFn = int (*)(int);
// The _FORTIFY_SOURCE reads take the destination's size last and abort on
// an overflow; the wrappers pass it on, so the check stays glibc's.
using ReadChkFn = ssize_t (*)(int, void*, size_t, size_t);
using PreadChkFn = ssize_t (*)(int, void*, size_t, off_t, size_t);
using Pread64ChkFn = ssize_t (*)(int, void*, size_t, off64_t, size_t);

/// Immutable after init; published through g_runtime with release ordering.
struct Runtime {
  CaptureConfig cfg;
};

std::atomic<Runtime*> g_runtime{nullptr};
std::atomic<std::uint32_t> g_pid{0};

/// Per-fd record verdict, decided once at open: 1 when the fd was opened
/// through the interposed open/openat family (not by the capture machinery
/// itself) and passes the include/exclude filters. The configuration is
/// immutable after capture_init, so a stored verdict cannot go stale;
/// close() clears it. Indexed by fd; fds beyond the table get no verdict.
/// 64 KiB of zero-initialized statics — no constructor ordering hazards.
constexpr int kMaxTrackedFd = 1 << 16;
std::array<std::atomic<unsigned char>, kMaxTrackedFd> g_fd_verdict{};

// Every thread_local in this file is initial-exec (the target is built with
// -ftls-model=initial-exec), so each access is one %fs-relative load or
// store instead of a __tls_get_addr call; DESIGN.md §9 has the dlopen
// caveat, and the capture_tls_model ctest pins it.

/// Reentrancy depth: >0 while capture bookkeeping (the cursor's own store,
/// spill I/O, warnings) is on the stack, so the wrappers pass its syscalls
/// through unrecorded.
thread_local int t_in_capture = 0;

/// The depth is raised before and lowered after everything in its scope,
/// also as seen by a signal handler interrupting this thread: the fences
/// keep the compiler from moving the cursor's accesses outside it.
struct ReentrancyGuard {
  ReentrancyGuard() {
    ++t_in_capture;
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  ~ReentrancyGuard() {
    std::atomic_signal_fence(std::memory_order_seq_cst);
    --t_in_capture;
  }
};

/// The record cursor: the calling thread's next free buffer slot and the
/// buffer's end. Both are null whenever a record may not be stored straight
/// away — before the thread's first record, after a transport failure or
/// close, in a fork child until it is re-armed, and after thread exit — and
/// every one of those cases falls to arm_thread(). Trivially destructible,
/// so they stay readable while the thread's TLS is torn down.
thread_local trace::IoRecord* t_next = nullptr;
thread_local trace::IoRecord* t_end = nullptr;

/// With tick stamps, the tick after which a record's end closes the open
/// segment (its opening anchor plus kSegmentTicks); INT64_MAX otherwise, so
/// the record path's check never fires. Trivially destructible.
thread_local std::int64_t t_segment_end = INT64_MAX;

/// Set once the current thread's ThreadCapture has been destroyed. A
/// trivially destructible TLS flag stays readable after complex TLS objects
/// are torn down, so late I/O during thread exit is dropped instead of
/// resurrecting a destroyed buffer.
thread_local bool t_capture_dead = false;

/// warn_once() bit for a thread that drops its records for lack of memory.
std::atomic<bool> g_warned_memory{false};

std::uint32_t cached_pid() {
  const std::uint32_t pid = g_pid.load(std::memory_order_relaxed);
  return pid != 0 ? pid : static_cast<std::uint32_t>(::getpid());
}

/// True when records are stamped in TSC ticks: an x86-64 build on a kernel
/// whose clocksource is `tsc`, which the kernel selects only for a TSC it
/// trusts as invariant and synchronized across CPUs. Set once in
/// capture_init, before the runtime is published; false leaves every stamp
/// a monotonic_ns() read with nothing to convert.
std::atomic<bool> g_tick_stamps{false};

#if defined(__x86_64__)
inline std::int64_t read_ticks() { return static_cast<std::int64_t>(__rdtsc()); }

/// The tick read after an anchor's clock read waits for it to finish.
inline std::int64_t read_ticks_ordered() {
  _mm_lfence();
  return read_ticks();
}
#else
inline std::int64_t read_ticks() { return 0; }  // unused: no tick stamps
inline std::int64_t read_ticks_ordered() { return 0; }
#endif

/// A record's start or end stamp. A plain rdtsc overlaps with the wrapper's
/// work where the vDSO's ordered clock read would serialize it.
[[gnu::always_inline]] inline std::int64_t stamp() {
  if (g_tick_stamps.load(std::memory_order_relaxed)) return read_ticks();
  return monotonic_ns();
}

/// A segment ends on the record path once a record ends this many ticks
/// (≈ 10–17 ms at 2–3.4 GHz) after its opening anchor, so no stamp sits
/// far from both of the anchors it is mapped between.
constexpr std::int64_t kSegmentTicks = std::int64_t{1} << 25;

/// The tightest of four `rdtsc; clock_gettime; rdtsc` brackets, its
/// midpoint tick beside its clock reading. One bracket is not enough: an
/// interrupt between its reads skews the whole segment mapped from it.
TickAnchor take_anchor() {
  TickAnchor best;
  std::int64_t best_width = INT64_MAX;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t before = read_ticks();
    const std::int64_t ns = monotonic_ns();
    const std::int64_t after = read_ticks_ordered();
    if (after - before < best_width) {
      best_width = after - before;
      best = TickAnchor{before + (after - before) / 2, ns};
    }
  }
  return best;
}

/// Whether the kernel keeps time with the TSC. Read once, at init, from
/// sysfs; any other answer, an unreadable file or another architecture
/// keeps the clock_gettime stamps.
bool kernel_clock_is_tsc() {
#if defined(__x86_64__)
  std::FILE* file = std::fopen(
      "/sys/devices/system/clocksource/clocksource0/current_clocksource", "re");
  if (file == nullptr) return false;
  char name[16] = {};
  const bool tsc = std::fgets(name, sizeof name, file) != nullptr &&
                   std::strcmp(name, "tsc\n") == 0;
  std::fclose(file);
  return tsc;
#else
  return false;
#endif
}

/// Per-thread capture state: the record buffer the cursor walks plus the
/// thread's own transport (socket shipping with spill fallback —
/// record_shipper.hpp). No other thread ever touches an instance.
struct ThreadCapture {
  /// buffer_records slots, allocated on the thread's first record.
  trace::IoRecord* buffer = nullptr;
  RecordShipper* shipper = nullptr;
  bool disabled = false;  ///< no buffer, transport failed, or closed: drop
  /// With tick stamps, the open segment: the slots from `unconverted` to
  /// the cursor still hold ticks, to be mapped from `anchor` to the
  /// segment's closing anchor.
  trace::IoRecord* unconverted = nullptr;
  TickAnchor anchor;

  ThreadCapture();

  ~ThreadCapture() {
    ReentrancyGuard guard;
    flush_and_close();
    ::operator delete(buffer);
    detach();
  }

  void detach();  // defined after the TLS mirror below

  /// Point the cursor at the buffer's first slot, sizing the buffer on the
  /// thread's first record. False leaves the cursor null: this thread
  /// drops its records.
  bool arm(const CaptureConfig& cfg) {
    if (disabled) return false;
    if (buffer == nullptr) {
      // Raw storage: pages are committed as the cursor reaches them, as
      // with the reserve() the buffer used to make.
      buffer = static_cast<trace::IoRecord*>(::operator new(
          cfg.buffer_records * sizeof(trace::IoRecord), std::nothrow));
      if (buffer == nullptr) {
        disabled = true;
        warn_once(g_warned_memory,
                  "cannot allocate a thread's record buffer; that thread's "
                  "records are dropped");
        return false;
      }
    }
    t_next = buffer;
    t_end = buffer + cfg.buffer_records;
    unconverted = buffer;
    if (g_tick_stamps.load(std::memory_order_relaxed)) open_segment(take_anchor());
    return true;
  }

  void disarm() {
    t_next = nullptr;
    t_end = nullptr;
    unconverted = nullptr;
    t_segment_end = INT64_MAX;
  }

  void open_segment(TickAnchor opening) {
    anchor = opening;
    t_segment_end = opening.tick + kSegmentTicks;
  }

  /// Map the open segment's stamps to ns with a fresh closing anchor, which
  /// opens the next segment. Nothing to do without tick stamps.
  void close_segment() {
    if (!g_tick_stamps.load(std::memory_order_relaxed)) return;
    const TickAnchor closing = take_anchor();
    ticks_to_ns({unconverted, t_next}, anchor, closing);
    open_segment(closing);
  }

  /// The record path's segment end: the records stay buffered, in ns.
  [[gnu::noinline]] void split_segment() {
    close_segment();
    unconverted = t_next;
  }

  /// Ship the buffered records through the thread's transport and restart
  /// the cursor at the first slot. On transport failure (or no memory for
  /// one), capture for this thread degrades to a silent drop (the shipper
  /// warns once per process).
  void flush(const CaptureConfig& cfg) {
    if (t_next == nullptr) return;  // not armed: nothing buffered
    close_segment();
    const auto count = static_cast<std::size_t>(t_next - buffer);
    t_next = buffer;
    unconverted = buffer;
    if (count == 0) return;
    bool shipped = false;
    try {
      if (shipper == nullptr) {
        shipper = new RecordShipper(cfg, cached_pid(),
                                    static_cast<std::uint32_t>(::gettid()));
      }
      shipped = shipper->ship({buffer, count});
    } catch (const std::bad_alloc&) {
      warn_once(g_warned_memory,
                "out of memory while shipping records; that thread's "
                "records are dropped");
    }
    if (!shipped) {
      disabled = true;
      disarm();
    }
  }

  void flush_and_close() {
    Runtime* runtime = g_runtime.load(std::memory_order_acquire);
    if (runtime != nullptr) flush(runtime->cfg);
    if (shipper != nullptr) {
      shipper->close();
      delete shipper;
      shipper = nullptr;
    }
    disabled = true;  // records arriving after close have nowhere to go
    disarm();
  }

  /// Fork child: the inherited transport belongs to the parent — the socket
  /// reference is dropped and an inherited spill writer (with the parent's
  /// file offset) abandoned un-closed. Buffered records were flushed on the
  /// parent side by the fork prepare handler; the child's cursor re-arms at
  /// the buffer's first slot on its next record, with a transport carrying
  /// its own pid.
  void abandon_after_fork() {
    disarm();
    if (shipper != nullptr) {
      shipper->abandon_after_fork();
      delete shipper;
      shipper = nullptr;
    }
    disabled = false;
  }
};

/// Raw pointer mirror of the function-local TLS instance, so the fork and
/// atexit handlers and a full cursor can reach the current thread's state
/// without constructing it. Null before first record and again after
/// teardown.
thread_local ThreadCapture* t_capture = nullptr;

ThreadCapture::ThreadCapture() { t_capture = this; }

void ThreadCapture::detach() {
  t_capture = nullptr;
  t_capture_dead = true;
}

ThreadCapture& thread_capture() {
  static thread_local ThreadCapture capture;
  return capture;
}

/// The one slow path of the record cursor, taken under the caller's
/// reentrancy guard whenever the cursor is null: constructs the thread's
/// ThreadCapture on first use and arms the cursor. False drops the record.
[[gnu::noinline]] bool arm_thread(const CaptureConfig& cfg) {
  if (t_capture_dead) return false;
  return thread_capture().arm(cfg);
}

[[gnu::noinline]] bool should_record_untracked(int fd) {
  if (fd < 0) return false;
  const Runtime* runtime = g_runtime.load(std::memory_order_acquire);
  return runtime != nullptr && runtime->cfg.enabled &&
         runtime->cfg.capture_all_fds && fd_passes_filters(runtime->cfg, fd);
}

/// Should a call on `fd` produce a record right now? A tracked fd's answer
/// is the verdict note_open stored; only untracked fds under
/// BPSIO_CAPTURE_ALL_FDS consult the filters per call.
[[gnu::always_inline]] inline bool should_record(int fd) {
  if (t_in_capture > 0) return false;
  if (fd >= 0 && fd < kMaxTrackedFd &&
      g_fd_verdict[static_cast<std::size_t>(fd)].load(
          std::memory_order_relaxed) != 0) {
    return true;
  }
  return should_record_untracked(fd);
}

/// Build one record and store it at the cursor. `requested` is the byte
/// count the application asked for — B counts requested blocks even when
/// the call came back short or failed (Section III.A). The times are
/// stamp() values, converted to ns before the records leave the thread.
/// The wrapper saves errno before and restores it after.
[[gnu::always_inline]] inline void record_io(trace::IoOpKind op,
                                             std::size_t requested,
                                             ssize_t ret, std::int64_t start_ns,
                                             std::int64_t end_ns,
                                             bool is_sync = false) {
  // should_record() said yes, which takes an initialized runtime.
  const CaptureConfig& cfg = g_runtime.load(std::memory_order_acquire)->cfg;
  trace::IoRecord record;
  record.pid = cached_pid();
  record.op = op;
  record.flags = static_cast<std::uint8_t>(
      (ret < 0 ? trace::kIoFailed : trace::kIoOk) |
      (is_sync ? trace::kIoSync : trace::kIoOk));
  record.blocks = is_sync ? 0 : requested_blocks(cfg, requested);
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  // The depth stays raised while the cursor moves: a signal handler's I/O
  // in this window passes through unrecorded instead of claiming the same
  // slot or flushing under the interrupted store.
  ReentrancyGuard guard;
  if (t_next == nullptr && !arm_thread(cfg)) return;
  *t_next = record;
  if (++t_next == t_end) {
    t_capture->flush(cfg);
  } else if (end_ns > t_segment_end) {
    t_capture->split_segment();
  }
}

/// Successful open through the wrappers stores the fd's verdict.
/// Capture-internal opens run under the reentrancy guard and get a zero
/// verdict — that is what keeps the trace file's own writes out of the
/// trace.
void note_open(int fd) {
  if (fd < 0 || fd >= kMaxTrackedFd) return;
  const Runtime* runtime = g_runtime.load(std::memory_order_acquire);
  const bool record = t_in_capture == 0 && runtime != nullptr &&
                      runtime->cfg.enabled &&
                      fd_passes_filters(runtime->cfg, fd);
  g_fd_verdict[static_cast<std::size_t>(fd)].store(record ? 1 : 0,
                                                   std::memory_order_relaxed);
}

void note_close(int fd) {
  if (fd < 0 || fd >= kMaxTrackedFd) return;
  g_fd_verdict[static_cast<std::size_t>(fd)].store(0,
                                                   std::memory_order_relaxed);
}

void atfork_prepare() {
  Runtime* runtime = g_runtime.load(std::memory_order_acquire);
  if (runtime == nullptr || t_capture == nullptr) return;
  ReentrancyGuard guard;
  t_capture->flush(runtime->cfg);  // pre-fork records land on the parent side
}

void atfork_child() {
  g_pid.store(static_cast<std::uint32_t>(::getpid()),
              std::memory_order_relaxed);
  if (t_capture != nullptr) t_capture->abandon_after_fork();
}

void at_exit_flush() {
  // The exiting thread's TLS destructor also does this, but destructor
  // order versus atexit is subtle across libcs; flush_and_close is
  // idempotent, so run it from both.
  if (t_capture != nullptr) {
    ReentrancyGuard guard;
    t_capture->flush_and_close();
  }
}

const char* capture_getenv(const char* name) { return std::getenv(name); }

__attribute__((constructor)) void capture_init() {
  if (g_runtime.load(std::memory_order_acquire) != nullptr) return;
  std::vector<std::string> warnings;
  auto* runtime = new Runtime;
  runtime->cfg = parse_capture_config(capture_getenv, &warnings);
  for (const std::string& warning : warnings) {
    std::fprintf(stderr, "bpsio-capture: %s\n", warning.c_str());
  }
  g_pid.store(static_cast<std::uint32_t>(::getpid()),
              std::memory_order_relaxed);
  if (runtime->cfg.enabled) {
    g_tick_stamps.store(kernel_clock_is_tsc(), std::memory_order_relaxed);
    ::pthread_atfork(atfork_prepare, nullptr, atfork_child);
    std::atexit(at_exit_flush);
  }
  g_runtime.store(runtime, std::memory_order_release);
}

/// dlsym(RTLD_NEXT) resolution of the real libc entry point. Each wrapper
/// caches its result in a function-local `static void* const` — a
/// thread-safe magic static, immutable after first use.
template <typename Fn>
Fn as_fn(void* symbol) {
  return reinterpret_cast<Fn>(symbol);
}

}  // namespace
}  // namespace bpsio::capture

namespace cap = bpsio::capture;

extern "C" {

int open(const char* path, int flags, ...) {
  static void* const real = dlsym(RTLD_NEXT, "open");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list args;
    va_start(args, flags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  const auto fn = cap::as_fn<cap::OpenFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(path, flags, mode);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int open64(const char* path, int flags, ...) {
  static void* const real = dlsym(RTLD_NEXT, "open64");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list args;
    va_start(args, flags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  const auto fn = cap::as_fn<cap::OpenFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(path, flags, mode);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int openat(int dirfd, const char* path, int flags, ...) {
  static void* const real = dlsym(RTLD_NEXT, "openat");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list args;
    va_start(args, flags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  const auto fn = cap::as_fn<cap::OpenatFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(dirfd, path, flags, mode);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int openat64(int dirfd, const char* path, int flags, ...) {
  static void* const real = dlsym(RTLD_NEXT, "openat64");
  mode_t mode = 0;
  if ((flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE) {
    va_list args;
    va_start(args, flags);
    mode = va_arg(args, mode_t);
    va_end(args);
  }
  const auto fn = cap::as_fn<cap::OpenatFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(dirfd, path, flags, mode);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

// The _FORTIFY_SOURCE opens: a fortified build calls __open_2 and friends
// for an open whose flags are not a compile-time constant and that passes
// no mode. They set the fd's verdict as open does, and so does creat.
int __open_2(const char* path, int flags) {
  static void* const real = dlsym(RTLD_NEXT, "__open_2");
  const auto fn = cap::as_fn<cap::Open2Fn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(path, flags);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int __open64_2(const char* path, int flags) {
  static void* const real = dlsym(RTLD_NEXT, "__open64_2");
  const auto fn = cap::as_fn<cap::Open2Fn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(path, flags);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int __openat_2(int dirfd, const char* path, int flags) {
  static void* const real = dlsym(RTLD_NEXT, "__openat_2");
  const auto fn = cap::as_fn<cap::Openat2Fn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(dirfd, path, flags);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int __openat64_2(int dirfd, const char* path, int flags) {
  static void* const real = dlsym(RTLD_NEXT, "__openat64_2");
  const auto fn = cap::as_fn<cap::Openat2Fn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(dirfd, path, flags);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int creat(const char* path, mode_t mode) {
  static void* const real = dlsym(RTLD_NEXT, "creat");
  const auto fn = cap::as_fn<cap::CreatFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(path, mode);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int creat64(const char* path, mode_t mode) {
  static void* const real = dlsym(RTLD_NEXT, "creat64");
  const auto fn = cap::as_fn<cap::CreatFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const int fd = fn(path, mode);
  const int saved_errno = errno;
  cap::note_open(fd);
  errno = saved_errno;
  return fd;
}

int close(int fd) {
  static void* const real = dlsym(RTLD_NEXT, "close");
  const auto fn = cap::as_fn<cap::CloseFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  cap::note_close(fd);
  return fn(fd);
}

ssize_t read(int fd, void* buf, size_t count) {
  static void* const real = dlsym(RTLD_NEXT, "read");
  const auto fn = cap::as_fn<cap::ReadFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::read, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t write(int fd, const void* buf, size_t count) {
  static void* const real = dlsym(RTLD_NEXT, "write");
  const auto fn = cap::as_fn<cap::WriteFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::write, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t pread(int fd, void* buf, size_t count, off_t offset) {
  static void* const real = dlsym(RTLD_NEXT, "pread");
  const auto fn = cap::as_fn<cap::PreadFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, offset);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, offset);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::read, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t pwrite(int fd, const void* buf, size_t count, off_t offset) {
  static void* const real = dlsym(RTLD_NEXT, "pwrite");
  const auto fn = cap::as_fn<cap::PwriteFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, offset);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, offset);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::write, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t pread64(int fd, void* buf, size_t count, off64_t offset) {
  static void* const real = dlsym(RTLD_NEXT, "pread64");
  const auto fn = cap::as_fn<cap::Pread64Fn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, offset);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, offset);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::read, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t pwrite64(int fd, const void* buf, size_t count, off64_t offset) {
  static void* const real = dlsym(RTLD_NEXT, "pwrite64");
  const auto fn = cap::as_fn<cap::Pwrite64Fn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, offset);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, offset);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::write, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

// The _FORTIFY_SOURCE reads: a fortified build calls these where it knows
// the destination's size but not the count. Each records as its plain
// counterpart does and forwards to glibc's own checked entry point.
ssize_t __read_chk(int fd, void* buf, size_t count, size_t buflen) {
  static void* const real = dlsym(RTLD_NEXT, "__read_chk");
  const auto fn = cap::as_fn<cap::ReadChkFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, buflen);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, buflen);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::read, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t __pread_chk(int fd, void* buf, size_t count, off_t offset,
                    size_t buflen) {
  static void* const real = dlsym(RTLD_NEXT, "__pread_chk");
  const auto fn = cap::as_fn<cap::PreadChkFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, offset, buflen);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, offset, buflen);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::read, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

ssize_t __pread64_chk(int fd, void* buf, size_t count, off64_t offset,
                      size_t buflen) {
  static void* const real = dlsym(RTLD_NEXT, "__pread64_chk");
  const auto fn = cap::as_fn<cap::Pread64ChkFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  if (count == 0 || !cap::should_record(fd)) return fn(fd, buf, count, offset, buflen);
  const std::int64_t start = cap::stamp();
  const ssize_t ret = fn(fd, buf, count, offset, buflen);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::read, count, ret, start,
                 cap::stamp());
  errno = saved_errno;
  return ret;
}

int fsync(int fd) {
  static void* const real = dlsym(RTLD_NEXT, "fsync");
  const auto fn = cap::as_fn<cap::FsyncFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  auto* runtime = cap::g_runtime.load(std::memory_order_acquire);
  const bool record = runtime != nullptr && runtime->cfg.record_fsync &&
                      cap::should_record(fd);
  if (!record) return fn(fd);
  const std::int64_t start = cap::stamp();
  const int ret = fn(fd);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::write, 0, ret, start,
                 cap::stamp(), /*is_sync=*/true);
  errno = saved_errno;
  return ret;
}

int fdatasync(int fd) {
  static void* const real = dlsym(RTLD_NEXT, "fdatasync");
  const auto fn = cap::as_fn<cap::FsyncFn>(real);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  auto* runtime = cap::g_runtime.load(std::memory_order_acquire);
  const bool record = runtime != nullptr && runtime->cfg.record_fsync &&
                      cap::should_record(fd);
  if (!record) return fn(fd);
  const std::int64_t start = cap::stamp();
  const int ret = fn(fd);
  const int saved_errno = errno;
  cap::record_io(bpsio::trace::IoOpKind::write, 0, ret, start,
                 cap::stamp(), /*is_sync=*/true);
  errno = saved_errno;
  return ret;
}

}  // extern "C"
