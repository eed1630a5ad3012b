// Non-owning reference to a callable.
//
// A FunctionRef<R(Args...)> is a pointer to some callable plus a pointer to
// a thunk that invokes it: two words, never an allocation, whatever the
// callable captures. It does not extend the callable's lifetime, so it is
// for parameters that are only called while the call that received them is
// running — for a coroutine, while the caller awaits it. A lambda written
// inline in the argument list of `co_await f(...)` lives until that
// co_await completes, which is exactly long enough.
//
// std::function copies the callable instead, and heap-allocates any
// capture larger than its small buffer (16 bytes on libstdc++).
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace wadc {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_(&invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R invoke(void* object, Args... args) {
    return (*static_cast<F*>(object))(std::forward<Args>(args)...);
  }

  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace wadc
