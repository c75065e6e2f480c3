// Runtime lock-order detector backing bpsio::Mutex (see mutex.hpp for when
// it is armed and how it relates to bpsio_analyze's static lock-cycle
// check).
//
// Model: a process-global directed graph over Mutex addresses. Whenever a
// thread blocks on mutex M while holding H, the process has committed to
// the order H -> M; the edge is recorded, and if M already reaches H
// transitively, some earlier acquisition committed to the opposite order —
// that inconsistency is reported immediately, on whichever thread closes
// the cycle, without needing the unlucky interleaving that would actually
// deadlock. Recursive acquisition of the same Mutex is reported too
// (std::mutex makes it undefined behaviour).
//
// try_lock acquisitions are tracked on the held stack (so release stays
// balanced) but contribute no edges and trigger no checks: they cannot
// block, and opportunistic grabs would poison the graph with orders the
// program never commits to.
//
// CondVar::wait releases and reacquires the native mutex without touching
// the detector. That is deliberate: from the caller's point of view the
// Mutex is held across the wait (it is reacquired before wait returns), and
// the held stack is thread-local, so other threads' checks never see it.
#include "common/mutex.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/check.hpp"

namespace bpsio {
namespace lock_order {
namespace {

// Guards the order graph and the handler pointer. Deliberately a raw
// std::mutex: the detector instruments bpsio::Mutex, so guarding its own
// state with one would recurse.
std::mutex g_mu;

// after[h] = set of mutexes some thread has blocked on while holding h.
// Function-local static so the graph is usable during static initialization
// of other translation units.
std::map<const void*, std::set<const void*>>& graph() {
  static std::map<const void*, std::set<const void*>> after;
  return after;
}

void default_handler(const char* message) {
  BPSIO_CHECK(false, "lock-order violation: %s", message);
}

ViolationHandler g_handler = default_handler;

// Per-thread stack of held Mutexes. A fixed trivially-destructible array:
// thread exit must not run nontrivial TLS destructors underneath code that
// may still hold locks. Depth beyond kMaxHeld is silently untracked —
// nothing in this codebase nests anywhere near it.
struct HeldLock {
  const void* mu;
  bool blocking;
};
constexpr int kMaxHeld = 64;
thread_local HeldLock t_held[kMaxHeld];
thread_local int t_held_count = 0;

// Is `to` reachable from `from` in the order graph? Iterative DFS; caller
// holds g_mu.
bool reaches(const void* from, const void* to) {
  if (from == to) return true;
  const auto& after = graph();
  std::set<const void*> visited;
  std::vector<const void*> stack{from};
  while (!stack.empty()) {
    const void* node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    const auto it = after.find(node);
    if (it == after.end()) continue;
    for (const void* next : it->second) {
      if (next == to) return true;
      stack.push_back(next);
    }
  }
  return false;
}

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler handler) {
  std::lock_guard<std::mutex> guard(g_mu);
  const ViolationHandler previous = g_handler;
  g_handler = handler != nullptr ? handler : default_handler;
  return previous;
}

void reset_for_testing() {
  std::lock_guard<std::mutex> guard(g_mu);
  graph().clear();
  t_held_count = 0;
}

void note_acquire(const void* mu) {
  char message[160];
  bool violation = false;
  ViolationHandler handler = nullptr;
  {
    std::lock_guard<std::mutex> guard(g_mu);
    for (int i = 0; i < t_held_count && !violation; ++i) {
      const HeldLock& held = t_held[i];
      if (!held.blocking) continue;
      if (held.mu == mu) {
        std::snprintf(message, sizeof message,
                      "recursive acquisition of mutex %p", mu);
        violation = true;
      } else if (reaches(mu, held.mu)) {
        std::snprintf(message, sizeof message,
                      "acquiring %p while holding %p inverts the established "
                      "order %p -> %p",
                      mu, held.mu, mu, held.mu);
        violation = true;
      }
    }
    if (!violation) {
      // Only a consistent acquisition extends the graph: recording the
      // inverted edge as well would merge both orders into one cycle and
      // make the *correct* order trip on its next use.
      auto& after = graph();
      for (int i = 0; i < t_held_count; ++i) {
        if (t_held[i].blocking) after[t_held[i].mu].insert(mu);
      }
    }
    // Push even on violation: the caller proceeds to lock() once the
    // handler returns (tests install a counting handler), and the release
    // must stay balanced.
    if (t_held_count < kMaxHeld) {
      t_held[t_held_count++] = {mu, /*blocking=*/true};
    }
    handler = g_handler;
  }
  // Outside g_mu: the default handler logs through the common log sink,
  // which takes a bpsio::Mutex of its own.
  if (violation) handler(message);
}

void note_acquired_try(const void* mu) {
  if (t_held_count < kMaxHeld) {
    t_held[t_held_count++] = {mu, /*blocking=*/false};
  }
}

void note_release(const void* mu) {
  // Scan from the top: releases are almost always LIFO. A miss (stack
  // overflowed kMaxHeld at acquire time) is ignored.
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held[i].mu != mu) continue;
    for (int j = i; j + 1 < t_held_count; ++j) t_held[j] = t_held[j + 1];
    --t_held_count;
    return;
  }
}

void forget(const void* mu) {
  std::lock_guard<std::mutex> guard(g_mu);
  auto& after = graph();
  after.erase(mu);
  for (auto& entry : after) entry.second.erase(mu);
}

}  // namespace lock_order
}  // namespace bpsio
