// Where an awaiter reports that it finished.
//
// An awaiter that the kernel resolves later (a network transfer, a
// reliable send, an engine hop) either resumes the coroutine awaiting it
// or calls back an awaiter layered above it, which lives in the same
// coroutine frame and carries the work on without a frame of its own.
// Both are one raw function pointer + context pair, like every other
// per-message callback in the kernel: two words, no allocation, one
// indirect call.
#pragma once

#include <coroutine>

namespace wadc::sim {

struct Continuation {
  void (*fn)(void* ctx) = nullptr;
  void* ctx = nullptr;

  // Resumes `h` when run.
  static Continuation resume(std::coroutine_handle<> h) {
    return {[](void* address) {
              std::coroutine_handle<>::from_address(address).resume();
            },
            h.address()};
  }

  // Calls `(self->*Member)()` when run: the hook of a layered awaiter.
  template <typename T, void (T::*Member)()>
  static Continuation member(T* self) {
    return {[](void* ctx) { (static_cast<T*>(ctx)->*Member)(); }, self};
  }

  void operator()() const { fn(ctx); }
};

}  // namespace wadc::sim
