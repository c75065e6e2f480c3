// Move-only type-erased callable for the simulated stack's per-event paths.
//
// A Callback is one pointer. The callable it wraps lives in a block from the
// simulator's block pool (sim/block_pool.hpp), headed by a pointer to a
// static table of its invoke and destroy functions, so making, moving and
// dropping a Callback never calls malloc. Moving passes the pointer on;
// nothing is ever copied, so a closure may capture the Callback of the
// layer below by move at every level of the stack (IoClient -> file system
// -> fan_out -> device -> ServiceCenter -> event) without the per-level
// allocations std::function makes once captures outgrow its small buffer.
// Callables larger than pool::kMaxBlock fall back to operator new.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "sim/block_pool.hpp"

namespace bpsio::sim {

template <class Sig>
class Callback;

namespace detail {

template <class R, class... Args>
struct CallbackHeader;

template <class R, class... Args>
struct CallbackOps {
  R (*invoke)(CallbackHeader<R, Args...>* box, Args&&... args);
  void (*destroy)(CallbackHeader<R, Args...>* box) noexcept;
};

template <class R, class... Args>
struct CallbackHeader {
  const CallbackOps<R, Args...>* ops;
};

template <class Fn, class R, class... Args>
struct CallbackBox : CallbackHeader<R, Args...> {
  using Header = CallbackHeader<R, Args...>;

  Fn fn;

  template <class F>
  explicit CallbackBox(F&& f) : Header{&kOps}, fn(std::forward<F>(f)) {}

  static constexpr bool pooled() {
    return sizeof(CallbackBox) <= pool::kMaxBlock &&
           alignof(CallbackBox) <= pool::kGranule;
  }

  static R invoke(Header* box, Args&&... args) {
    Fn& target = static_cast<CallbackBox*>(box)->fn;
    if constexpr (std::is_void_v<R>) {
      std::invoke(target, std::forward<Args>(args)...);
    } else {
      return std::invoke(target, std::forward<Args>(args)...);
    }
  }

  static void destroy(Header* box) noexcept {
    auto* self = static_cast<CallbackBox*>(box);
    if constexpr (pooled()) {
      self->~CallbackBox();
      pool::deallocate(self, pool::size_class(sizeof(CallbackBox)));
    } else {
      delete self;
    }
  }

  static constexpr CallbackOps<R, Args...> kOps{&invoke, &destroy};

  template <class F>
  static Header* make(F&& f) {
    if constexpr (pooled()) {
      constexpr std::size_t cls = pool::size_class(sizeof(CallbackBox));
      void* mem = pool::allocate(cls);
      try {
        return ::new (mem) CallbackBox(std::forward<F>(f));
      } catch (...) {
        pool::deallocate(mem, cls);
        throw;
      }
    } else {
      return new CallbackBox(std::forward<F>(f));
    }
  }
};

}  // namespace detail

template <class R, class... Args>
class Callback<R(Args...)> {
 public:
  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wrap any callable invocable as R(Args...). Implicit, like
  /// std::function, so call sites pass lambdas directly.
  template <class F, class Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Callback> &&
             std::is_invocable_r_v<R, Fn&, Args...>)
  Callback(F&& f)  // NOLINT(google-explicit-constructor)
      : box_(detail::CallbackBox<Fn, R, Args...>::make(std::forward<F>(f))) {}

  Callback(Callback&& other) noexcept
      : box_(std::exchange(other.box_, nullptr)) {}
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      box_ = std::exchange(other.box_, nullptr);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return box_ != nullptr; }

  R operator()(Args... args) const {
    BPSIO_DCHECK(box_ != nullptr, "call of an empty sim::Callback");
    return box_->ops->invoke(box_, std::forward<Args>(args)...);
  }

 private:
  void reset() noexcept {
    if (auto* box = std::exchange(box_, nullptr)) box->ops->destroy(box);
  }

  detail::CallbackHeader<R, Args...>* box_ = nullptr;
};

}  // namespace bpsio::sim
