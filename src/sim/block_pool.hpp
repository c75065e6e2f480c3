// Fixed-size block pool behind the simulator's callbacks and joins.
//
// Every completion step of the simulated stack allocates one small closure
// and frees it a few events later, hundreds of thousands of times per zoo
// pass. The pool serves those blocks from per-thread free lists, one per
// size class (16-byte steps up to kMaxBlock), so the steady state is a
// pointer pop and push with no lock and no call into malloc.
//
// Lifetime rules (DESIGN.md §17):
//   - Blocks come from 64 KiB slabs that are never returned to the system.
//     Every slab stays linked in one process-wide list, so leak checkers see
//     them as reachable, and a block stays valid for the whole process.
//   - A thread takes slabs, or blocks that finished threads gave back, from
//     the process-wide lists under one leaf lock, once per slab's worth of
//     blocks. The lock is held for nothing else.
//   - A block may be freed on any thread; it joins that thread's free list.
//     A callback that outlives the thread that made it is therefore fine.
//   - A thread's first allocation or free registers an exit hook. At
//     thread exit the hook hands the thread's free lists to the
//     process-wide ones for other threads to reuse. Blocks freed on that
//     thread after its hook ran (callbacks destroyed by later thread_local
//     or static destructors) go straight to the process-wide lists under
//     the lock, and the process-wide state itself is never destroyed.
//   - Under AddressSanitizer every free block is poisoned whole, its
//     free-list word included, so touching a block after it was freed (a
//     callback called after its box was destroyed, a join used after its
//     release) is reported as use-after-poison, as a freed heap block
//     would be. The pool unpoisons a block only to hand it out, and a
//     free block's free-list word only while it reads or writes it.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>

namespace bpsio::sim::pool {

inline constexpr std::size_t kGranule = 16;
inline constexpr std::size_t kClasses = 16;
/// Largest pooled block; larger objects use operator new.
inline constexpr std::size_t kMaxBlock = kGranule * kClasses;

/// Size class of a `bytes`-byte object (1 <= bytes <= kMaxBlock).
constexpr std::size_t size_class(std::size_t bytes) {
  return (bytes + kGranule - 1) / kGranule - 1;
}

/// Bytes in a block of class `cls`.
constexpr std::size_t block_bytes(std::size_t cls) {
  return (cls + 1) * kGranule;
}

struct FreeBlock {
  FreeBlock* next;
};

// No-ops unless built with AddressSanitizer.
inline void poison(void* p, std::size_t bytes) noexcept {
  ASAN_POISON_MEMORY_REGION(p, bytes);
}
inline void unpoison(void* p, std::size_t bytes) noexcept {
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
}

/// Unlink the head block of a non-empty class-`cls` list and unpoison it.
inline void* pop(FreeBlock*& head, std::size_t cls) noexcept {
  FreeBlock* block = head;
  unpoison(block, block_bytes(cls));
  head = block->next;
  return block;
}

/// Link a class-`cls` block in front of `head` and poison it.
inline void push(FreeBlock*& head, void* block, std::size_t cls) noexcept {
  auto* b = static_cast<FreeBlock*>(block);
  b->next = head;
  head = b;
  poison(b, block_bytes(cls));
}

/// Where a thread's cache is in its life. `fresh` until the thread first
/// uses the pool, which registers the exit hook; `retired` once the hook has
/// handed the lists back, after which the cache is bypassed.
enum class Stage : std::uint8_t { fresh, live, retired };

struct ThreadCache {
  FreeBlock* free[kClasses];
  Stage stage;
};

// Trivially destructible and constant-initialized, so the fast paths below
// read it with no TLS guard, and it stays readable during thread_local and
// static destruction.
inline thread_local constinit ThreadCache t_cache{};

/// Slow paths (block_pool.cpp).
void* refill(std::size_t cls);
void deallocate_slow(void* block, std::size_t cls) noexcept;

/// A block of class `cls`, aligned to kGranule.
inline void* allocate(std::size_t cls) {
  ThreadCache& cache = t_cache;
  if (cache.free[cls] != nullptr) return pop(cache.free[cls], cls);
  return refill(cls);
}

inline void deallocate(void* block, std::size_t cls) noexcept {
  ThreadCache& cache = t_cache;
  if (cache.stage != Stage::live) [[unlikely]] {
    deallocate_slow(block, cls);
    return;
  }
  push(cache.free[cls], block, cls);
}

}  // namespace bpsio::sim::pool
