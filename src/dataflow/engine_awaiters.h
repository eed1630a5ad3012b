// The engine's message-path awaiters (see Engine's messaging section in
// engine.h). Private to the engine's own sources: engine.cc and
// engine_messaging.cc, which holds their bodies.
#pragma once

#include <coroutine>
#include <memory>

#include "core/operator_directory.h"
#include "dataflow/engine.h"
#include "dataflow/engine_messaging.h"
#include "monitor/bandwidth_cache.h"
#include "net/reliable_transfer.h"
#include "net/types.h"
#include "sim/continuation.h"
#include "sim/mailbox.h"

namespace wadc::dataflow {

// One physical hop of an engine message. Before every attempt of the
// reliable send it rebuilds the sender's piggyback payload (§4) and, under
// directory routing, the sender's directory snapshot (§2.3); on delivery
// it merges both at the receiver, inside the delivering event. The run
// finishing or aborting cancels the retries. A from == to hop moves
// nothing: it completes at once, with no transfer, payload or event.
class Engine::Hop {
 public:
  Hop(Engine& engine, net::HostId from, net::HostId to, double bytes,
      int priority);
  Hop(const Hop&) = delete;
  Hop& operator=(const Hop&) = delete;

  bool await_ready() const { return from_ == to_; }
  bool await_suspend(std::coroutine_handle<> waiter) {
    return !start(sim::Continuation::resume(waiter));
  }
  bool await_resume() const { return delivered(); }

  // Begins the hop: true if it finished at once, otherwise `done` runs
  // when it resolves.
  bool start(sim::Continuation done);
  // Points a finished hop at the next leg of the same message.
  void rearm(net::HostId from, net::HostId to);
  bool delivered() const { return from_ == to_ || send_.delivered(); }

 private:
  static double build_bytes(void* self);
  static void on_delivered(void* self);
  static bool cancelled(void* self);

  Engine& engine_;
  net::HostId from_;
  net::HostId to_;
  double bytes_;
  monitor::Payload payload_;
  std::unique_ptr<core::OperatorDirectory> directory_snapshot_;
  net::ReliableChannel::SendAwaiter send_;
};

// A message on its way: one Hop, re-armed for each leg of the chase the
// router starts it on (see MessageRouter::Chase). co_await yields the host
// it arrived at, or kInvalidHost if a leg failed or the chase gave up
// (fault mode only; the caller re-resolves and tries again).
class Engine::Route {
 public:
  Route(Engine& engine, const MessageRouter::Chase& chase, double bytes,
        int priority)
      : router_(engine.router_),
        chase_(chase),
        hop_(engine, chase.at, chase.next, bytes, priority) {}
  Route(const Route&) = delete;
  Route& operator=(const Route&) = delete;

  bool await_ready() const { return false; }
  bool await_suspend(std::coroutine_handle<> waiter) {
    return !start(sim::Continuation::resume(waiter));
  }
  net::HostId await_resume() const { return chase_.at; }

  // Begins the route: true if it finished at once, otherwise `done` runs
  // when it does.
  bool start(sim::Continuation done);
  bool arrived() const { return chase_.at != net::kInvalidHost; }

 private:
  // Makes legs until one is in flight (false) or the way is over (true).
  bool run();
  // The in-flight leg's completion target.
  void on_leg();

  MessageRouter& router_;
  MessageRouter::Chase chase_;
  Hop hop_;
  sim::Continuation done_;
};

// A Route that posts its message into the receiver's mailbox on arrival,
// inside the delivering event and before the sender resumes. co_await
// yields whether the message arrived.
template <typename Msg>
class Engine::Post {
 public:
  Post(Engine& engine, const MessageRouter::Chase& chase, double bytes,
       int priority, const Msg& message, sim::Mailbox<Msg>& mailbox)
      : route_(engine, chase, bytes, priority),
        message_(message),
        mailbox_(mailbox) {}
  Post(const Post&) = delete;
  Post& operator=(const Post&) = delete;

  bool await_ready() const { return false; }
  bool await_suspend(std::coroutine_handle<> waiter) {
    waiter_ = waiter;
    if (!route_.start(sim::Continuation::member<Post, &Post::on_route>(this))) {
      return true;
    }
    post();
    return false;
  }
  bool await_resume() const { return route_.arrived(); }

 private:
  void post() {
    if (route_.arrived()) mailbox_.send(message_);
  }
  void on_route() {
    post();
    waiter_.resume();
  }

  Route route_;
  Msg message_;
  sim::Mailbox<Msg>& mailbox_;
  std::coroutine_handle<> waiter_;
};

}  // namespace wadc::dataflow
