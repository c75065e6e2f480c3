// Fixed-size worker pool for the parallel metric pipeline.
//
// The discrete-event simulator core stays single-threaded by design; what
// parallelizes is the work around it. Two callers fan out through this pool:
// independent sweep points, each on its own Simulator (core/experiment), and
// the sharded interval sort of overlap_time_parallel (metrics/overlap). The
// trace merge, B and the correlation study run serially.
//
// Deliberately minimal: a mutex-protected task queue (an annotated
// common/mutex.hpp Mutex, so clang's -Wthread-safety proves every queue
// access is locked), no work stealing, no futures. Determinism is the
// callers' job and they get it by pre-assigning
// every task an output slot (no result depends on completion order).
// `run_all` blocks, so it must be called from outside the pool's own
// workers — tasks must not submit blocking sub-tasks, or the pool can
// deadlock waiting on itself.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace bpsio {

class ThreadPool {
 public:
  /// `threads` == 0 resolves to hardware_threads(). A pool of size 1 runs
  /// every task inline on the calling thread (no worker is spawned), so
  /// serial and parallel call sites share one code path.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Run every task (in unspecified order, possibly concurrently) and block
  /// until all have finished. Exceptions escaping a task terminate (tasks
  /// report failure through their own state instead).
  void run_all(std::vector<std::function<void()>> tasks);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  struct Impl;
  Impl* impl_ = nullptr;  ///< null when size_ == 1 (inline execution)
  std::size_t size_ = 1;
};

}  // namespace bpsio
