#include "sim/block_pool.hpp"

#include <mutex>
#include <new>

namespace bpsio::sim::pool {

namespace {

constexpr std::size_t kSlabBytes = 64 * 1024;

struct Slab {
  Slab* next;
};
// Blocks start one granule into the slab so they keep kGranule alignment.
static_assert(sizeof(Slab) <= kGranule);
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kGranule);

// The process-wide lists. A raw std::mutex, like the lock-order detector's
// own (common/mutex.cpp): the exit hook below takes it during thread_local
// destruction, where the instrumented bpsio::Mutex's per-thread state may
// already be gone. It is a leaf lock: nothing else is taken under it.
struct Shared {
  std::mutex mu;
  FreeBlock* free[kClasses] = {};
  Slab* slabs = nullptr;  ///< every slab ever carved, for leak checkers
};

// Never destroyed, so blocks freed during static destruction still have a
// home; reachable through this pointer, so never reported as leaked.
Shared& shared() {
  static Shared* const instance = new Shared;
  return *instance;
}

/// Carve a fresh slab into a chain of class-`cls` blocks. Caller holds mu.
FreeBlock* carve_slab(Shared& s, std::size_t cls) {
  auto* slab = static_cast<Slab*>(::operator new(kSlabBytes));
  slab->next = s.slabs;
  s.slabs = slab;
  const std::size_t block = block_bytes(cls);
  char* const first = reinterpret_cast<char*>(slab) + kGranule;
  const std::size_t count = (kSlabBytes - kGranule) / block;
  FreeBlock* chain = nullptr;
  for (std::size_t i = count; i-- > 0;) push(chain, first + i * block, cls);
  return chain;
}

/// The block after `b` on a free list, read past b's poison.
FreeBlock* next_of(FreeBlock* b) noexcept {
  unpoison(b, sizeof(FreeBlock));
  FreeBlock* next = b->next;
  poison(b, sizeof(FreeBlock));
  return next;
}

/// Take every block of class `cls` the process-wide list holds, or a fresh
/// slab's worth. Caller holds mu.
FreeBlock* take_chain(Shared& s, std::size_t cls) {
  FreeBlock* chain = s.free[cls];
  s.free[cls] = nullptr;
  return chain != nullptr ? chain : carve_slab(s, cls);
}

/// Hands the thread's free lists back when the thread exits.
struct ExitHook {
  ExitHook() = default;
  ExitHook(const ExitHook&) = delete;
  ExitHook& operator=(const ExitHook&) = delete;
  ~ExitHook() {
    ThreadCache& cache = t_cache;
    Shared& s = shared();
    std::lock_guard<std::mutex> lock(s.mu);
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      FreeBlock* head = cache.free[cls];
      if (head == nullptr) continue;
      FreeBlock* tail = head;
      while (FreeBlock* next = next_of(tail)) tail = next;
      unpoison(tail, sizeof(FreeBlock));
      tail->next = s.free[cls];
      poison(tail, sizeof(FreeBlock));
      s.free[cls] = head;
      cache.free[cls] = nullptr;
    }
    cache.stage = Stage::retired;
  }
};

/// First use of the pool on this thread: register the exit hook.
void go_live(ThreadCache& cache) {
  thread_local ExitHook hook;
  (void)&hook;
  cache.stage = Stage::live;
}

}  // namespace

void* refill(std::size_t cls) {
  ThreadCache& cache = t_cache;
  Shared& s = shared();
  if (cache.stage == Stage::retired) {
    // Past this thread's exit hook: serve the block from the shared list.
    std::lock_guard<std::mutex> lock(s.mu);
    s.free[cls] = take_chain(s, cls);
    return pop(s.free[cls], cls);
  }
  if (cache.stage == Stage::fresh) go_live(cache);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    cache.free[cls] = take_chain(s, cls);
  }
  return pop(cache.free[cls], cls);
}

void deallocate_slow(void* block, std::size_t cls) noexcept {
  ThreadCache& cache = t_cache;
  if (cache.stage == Stage::fresh) {
    // A thread whose first pool call is a free (of a block made elsewhere).
    go_live(cache);
    push(cache.free[cls], block, cls);
    return;
  }
  Shared& s = shared();
  std::lock_guard<std::mutex> lock(s.mu);
  push(s.free[cls], block, cls);
}

}  // namespace bpsio::sim::pool
