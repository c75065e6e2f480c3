// sim::Callback and the block pool behind it: a move-only one-pointer
// callable whose storage comes from per-thread size-class free lists, with
// blocks that stay valid across threads and are reused after a thread exits.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "sim/block_pool.hpp"
#include "sim/callback.hpp"

namespace bpsio::sim {
namespace {

// Mirrors the test in <sanitizer/asan_interface.h>, which block_pool.hpp
// includes: only AddressSanitizer builds poison freed blocks.
#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif

TEST(Callback, IsOnePointer) {
  static_assert(sizeof(Callback<void()>) == sizeof(void*));
  static_assert(!std::is_copy_constructible_v<Callback<void()>>);
  static_assert(std::is_nothrow_move_constructible_v<Callback<void()>>);
}

TEST(Callback, EmptyByDefault) {
  Callback<void()> empty;
  EXPECT_FALSE(empty);
  Callback<void()> null = nullptr;
  EXPECT_FALSE(null);
}

TEST(Callback, ForwardsArgumentsAndResult) {
  Callback<int(int, int)> add = [](int a, int b) { return a + b; };
  ASSERT_TRUE(add);
  EXPECT_EQ(add(2, 3), 5);
  std::string seen;
  Callback<void(std::string)> take = [&](std::string s) { seen = std::move(s); };
  take("moved in");
  EXPECT_EQ(seen, "moved in");
}

TEST(Callback, MutableStateSurvivesCalls) {
  Callback<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
}

TEST(Callback, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(7);
  Callback<int()> a = [token]() { return *token; };
  EXPECT_EQ(token.use_count(), 2);
  Callback<int()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(b(), 7);
  b = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, NestsMoveOnlyCaptures) {
  // Each layer captures the callback of the layer below by move.
  int fired = 0;
  Callback<void(int)> inner = [&](int v) { fired += v; };
  Callback<void()> outer = [inner = std::move(inner)]() { inner(4); };
  Callback<void()> event = [outer = std::move(outer)]() { outer(); };
  event();
  EXPECT_EQ(fired, 4);
}

TEST(Callback, LargeAndOverAlignedCallablesWork) {
  std::array<std::uint64_t, 64> big{};
  big[63] = 9;
  Callback<std::uint64_t()> large = [big]() { return big[63]; };
  EXPECT_EQ(large(), 9u);

  struct alignas(64) Wide {
    int v = 3;
  };
  Callback<int()> aligned = [w = Wide{}]() {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&w) % 64, 0u);
    return w.v;
  };
  EXPECT_EQ(aligned(), 3);
}

TEST(BlockPool, ReusesTheLastFreedBlock) {
  constexpr std::size_t cls = pool::size_class(48);
  void* a = pool::allocate(cls);
  pool::deallocate(a, cls);
  void* b = pool::allocate(cls);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % pool::kGranule, 0u);
  pool::deallocate(b, cls);
}

TEST(BlockPool, CallbackMayOutliveTheThreadThatMadeIt) {
  auto token = std::make_shared<int>(11);
  Callback<int()> carried;
  std::thread maker([&]() { carried = [token]() { return *token; }; });
  maker.join();
  EXPECT_EQ(carried(), 11);
  carried = nullptr;  // freed on this thread, into this thread's list
  EXPECT_EQ(token.use_count(), 1);
}

/// The block a fresh thread gets first from class `cls`.
void* first_block_on_a_new_thread(std::size_t cls) {
  void* block = nullptr;
  std::thread taker([&]() {
    block = pool::allocate(cls);
    pool::deallocate(block, cls);
  });
  taker.join();
  return block;
}

TEST(BlockPool, FinishedThreadsBlocksAreReused) {
  // Classes no other test uses, so the shared list holds only what the
  // threads here handed back at their exit.
  constexpr std::size_t cls = pool::kClasses - 3;
  void* freed_by_first = first_block_on_a_new_thread(cls);
  EXPECT_EQ(first_block_on_a_new_thread(cls), freed_by_first);

  // A thread whose only pool call is a free hands that block back too.
  constexpr std::size_t other = pool::kClasses - 2;
  void* made_here = pool::allocate(other);
  std::thread freer([&]() { pool::deallocate(made_here, other); });
  freer.join();
  EXPECT_EQ(first_block_on_a_new_thread(other), made_here);
}

/// A closure that destroys the Callback owning it, then reads a capture.
int read_capture_after_freeing_own_box() {
  Callback<int()> self;
  self = [&self, stale = 42]() {
    self = nullptr;  // frees this closure's box
    return stale;
  };
  return self();
}

/// A Callback called through a reference that outlived the closure holding
/// it: its box pointer is read from the freed block.
void call_through_reference_outliving_its_holder() {
  const Callback<void()>* inner = nullptr;
  Callback<void()> outer = [in = Callback<void()>([] {}), &inner]() {
    inner = &in;
  };
  outer();
  outer = nullptr;
  (*inner)();
}

TEST(BlockPoolDeathTest, FreedBoxesArePoisoned) {
  // A freed block goes back on a free list, not to malloc, so without
  // poisoning these reads would silently see stale or reused memory.
  if (!kAddressSanitizer) {
    GTEST_SKIP() << "freed pool blocks are poisoned only under AddressSanitizer";
  }
  EXPECT_DEATH(read_capture_after_freeing_own_box(), "use-after-poison");
  EXPECT_DEATH(call_through_reference_outliving_its_holder(),
               "use-after-poison");
}

}  // namespace
}  // namespace bpsio::sim
