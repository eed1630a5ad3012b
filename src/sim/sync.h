// Process synchronization: pulse events.
#pragma once

#include <coroutine>
#include <vector>

#include "sim/simulation.h"

namespace wadc::sim {

// A pulse event: trigger() wakes every process currently waiting and then
// resets. Waiters resume through the event queue at the current time, in
// the order they began waiting.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ev.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void trigger() {
    // schedule_at runs no user code (it only enqueues), so iterating the
    // live vector is safe; clear() keeps its capacity across pulses where
    // the old swap-with-a-temporary reset it to zero every time.
    for (auto h : waiters_) {
      sim_.schedule_at(sim_.now(), [h] { h.resume(); });
    }
    waiters_.clear();
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulation& sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace wadc::sim
