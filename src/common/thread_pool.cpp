#include "common/thread_pool.hpp"

#include <deque>
#include <thread>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace bpsio {

struct ThreadPool::Impl {
  Mutex mu;
  CondVar work_cv;   ///< workers wait for tasks
  CondVar done_cv;   ///< run_all waits for drain
  std::deque<std::function<void()>> queue BPSIO_GUARDED_BY(mu);
  std::size_t in_flight BPSIO_GUARDED_BY(mu) = 0;  ///< queued + executing
  bool stop BPSIO_GUARDED_BY(mu) = false;
  std::vector<std::thread> workers;  ///< ctor/dtor thread only

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu);
        while (!stop && queue.empty()) work_cv.wait(mu);
        if (stop && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
      {
        MutexLock lock(mu);
        if (--in_flight == 0) done_cv.notify_all();
      }
    }
  }
};

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  size_ = threads == 0 ? hardware_threads() : threads;
  if (size_ == 1) return;  // inline mode, no workers
  impl_ = new Impl;
  impl_->workers.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    MutexLock lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  if (!impl_) {
    for (auto& t : tasks) t();
    return;
  }
  {
    MutexLock lock(impl_->mu);
    impl_->in_flight += tasks.size();
    for (auto& t : tasks) impl_->queue.push_back(std::move(t));
  }
  impl_->work_cv.notify_all();
  MutexLock lock(impl_->mu);
  while (impl_->in_flight != 0) impl_->done_cv.wait(impl_->mu);
}

}  // namespace bpsio
