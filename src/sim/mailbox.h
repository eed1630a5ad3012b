// FIFO mailbox for inter-process messages.
//
// The engine uses mailboxes to hand delivered messages to the operator and
// client processes. Items are received in the order they were sent, and
// waiting receivers are served in FIFO order. The paper's requirement that
// "barrier messages are assigned a higher priority" (§2.2) is met by the
// network's transfer queue (net/network.h), before a message reaches a
// mailbox.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "sim/simulation.h"

namespace wadc::sim {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(sim) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Enqueues a value. If a receiver is waiting, one is woken (through the
  // event queue, preserving determinism).
  void send(T value) {
    items_.push_back(std::move(value));
    if (!waiters_.empty()) {
      ReceiveAwaiter* waiter = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_at(sim_.now(), [this, waiter] { wake(waiter); });
    }
  }

  // Awaitable receive; co_await yields the oldest item.
  auto receive() { return ReceiveAwaiter{this, std::nullopt, {}}; }

  bool empty() const { return items_.empty(); }

  struct ReceiveAwaiter {
    Mailbox* mailbox;
    std::optional<T> value;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (mailbox->items_.empty()) return false;
      value = mailbox->pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      mailbox->waiters_.push_back(this);
    }
    T await_resume() {
      WADC_ASSERT(value.has_value(), "mailbox resume without a value");
      return std::move(*value);
    }
  };

 private:
  T pop_front() {
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  void wake(ReceiveAwaiter* waiter) {
    if (items_.empty()) {
      // Another receiver found the item buffered and took it before this
      // wake-up ran; the waiter goes back to the head of the line.
      waiters_.push_front(waiter);
      return;
    }
    waiter->value = pop_front();
    waiter->handle.resume();
  }

  Simulation& sim_;
  std::deque<T> items_;
  std::deque<ReceiveAwaiter*> waiters_;
};

}  // namespace wadc::sim
