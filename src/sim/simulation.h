// Process-oriented discrete-event simulation kernel.
//
// This is the substrate the paper built on CSIM: simulated time, a
// deterministic event loop, and detached "processes" written as coroutines.
// Typical usage:
//
//   sim::Simulation sim;
//   sim.spawn([](sim::Simulation& s) -> sim::Task<> {
//     co_await s.delay(1.5);
//     ...
//   }(sim));
//   sim.run();
//
// Determinism: every wake-up goes through the (time, seq) ordered event
// queue, so two runs with the same inputs produce identical event orders.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <unordered_map>

#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/types.h"

namespace wadc::sim {

class Simulation {
 public:
  enum class RunStatus {
    kIdle,       // event queue drained
    kStopped,    // request_stop() was called
    kTimeLimit,  // the `until` horizon was reached
  };

  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  // The clock's current reading: now() in a pure simulation, the wall-clock
  // mapping when a realtime clock is installed. External event sources
  // (socket completions arriving inside Clock::wait_until) schedule at this
  // time so they never land in the past.
  SimTime external_now() {
    if (clock_ == nullptr) return now_;
    const SimTime t = clock_->now(now_);
    return t > now_ ? t : now_;
  }

  // Installs the time source driving run(). Null (the default) restores the
  // pure discrete-event loop: events dispatch back-to-back with no waiting.
  // A realtime clock makes run() wait for wall time to reach each event's
  // timestamp, servicing I/O meanwhile (see sim/clock.h). Must not be
  // called while run() is on the stack.
  void set_clock(Clock* clock) { clock_ = clock; }
  Clock* clock() const { return clock_; }

  // Schedules `action` to run at absolute time `t` (>= now). Actions are
  // move-only Callbacks; captures up to Callback::kInlineSize bytes are
  // stored inline in the queue entry (no allocation).
  void schedule_at(SimTime t, Callback action);
  // Schedules `action` to run `dt` seconds from now (dt >= 0).
  void schedule_in(SimTime dt, Callback action);

  // Like schedule_at, but returns a handle usable with cancel_scheduled.
  // Returns kNoEventSeq if nothing was scheduled (teardown in progress).
  // The handle is opaque: it packs the event's sequence number with its
  // queue slot, so cancellation goes straight to the event's heap key: no
  // hashing or search.
  EventSeq schedule_at_cancellable(SimTime t, Callback action);

  // Cancels a pending event previously returned by schedule_at_cancellable.
  // The event must not have fired yet; kNoEventSeq is ignored, as is any
  // cancellation during teardown and any handle issued before the last
  // terminate_all() (those events were already dropped with the queue).
  void cancel_scheduled(EventSeq id);

  // Reserves `count` consecutive sequence numbers and returns the first.
  // An event later scheduled under one of them with schedule_reserved()
  // takes the place in the (time, seq) order that scheduling it now would
  // have given it, provided it is scheduled before any event ordered after
  // it fires. A chain of events sorted by time can so keep only its next
  // link pending and still pop exactly as if all had been scheduled here.
  EventSeq reserve_seqs(std::size_t count);

  // Schedules `action` at absolute time `t` (>= now) under `seq`, a number
  // from reserve_seqs(). The event always goes onto the heap, never onto
  // the current-time FIFO: its seq is older than that of any FIFO event at
  // the same time, so it must pop ahead of them. Dropped during teardown.
  void schedule_reserved(SimTime t, EventSeq seq, Callback action);

  // Starts a detached process. The process begins at the current time (via
  // the event queue, not synchronously). Returns a process id. The frame is
  // reclaimed when the process finishes, or by terminate_all().
  std::uint64_t spawn(Task<> process);

  // Runs the event loop until the queue drains, request_stop() is called,
  // or simulated time would pass `until`. An exception escaping a process
  // aborts the run and is rethrown here.
  RunStatus run(SimTime until = kTimeInfinity);

  // Makes run() return after the current event completes.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  // Destroys all live process frames and drops all pending events. Called
  // automatically by the destructor; owners whose members are referenced by
  // process frames must call it before those members die.
  void terminate_all();

  // Epoch boundary: terminate_all() plus a rewind of every counter to its
  // just-constructed value, keeping the event queue's heap and slot
  // capacity. A reset simulation replays byte-identically to a freshly
  // constructed one, so sweep workers reuse one Simulation across runs
  // instead of reconstructing it.
  void reset();

  std::size_t live_process_count() const { return processes_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }
  // Keys in the event queue's heap (read-only, for tests).
  std::size_t heap_size() const { return queue_.heap_size(); }

  // Awaitable: suspends the current process for `dt` seconds (dt >= 0).
  // delay(0) yields through the event queue.
  auto delay(SimTime dt) {
    struct Awaiter {
      Simulation& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        auto thunk = [h] { h.resume(); };
        static_assert(Callback::fits_inline<decltype(thunk)>(),
                      "resume thunks must stay allocation-free");
        sim.schedule_in(dt, thunk);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

 private:
  // Handles returned by schedule_at_cancellable: low bits carry the event
  // sequence number, high bits the queue slot, so cancel_scheduled goes
  // straight to the slot. 2^40 events per queue epoch and 2^24 concurrent
  // pending events are both far beyond any run.
  static constexpr int kHandleSeqBits = 40;
  static constexpr EventSeq kHandleSeqMask =
      (static_cast<EventSeq>(1) << kHandleSeqBits) - 1;

  // Top-level wrapper that drives a detached Task<> and self-destructs.
  struct Driver {
    struct promise_type : PooledFrame {
      Simulation* sim = nullptr;
      std::uint64_t id = 0;

      Driver get_return_object() {
        return Driver{
            std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() const noexcept { return {}; }
      struct FinalAwaiter {
        bool await_ready() const noexcept { return false; }
        void await_suspend(
            std::coroutine_handle<promise_type> h) const noexcept {
          auto* sim = h.promise().sim;
          const auto id = h.promise().id;
          h.destroy();
          sim->processes_.erase(id);
        }
        void await_resume() const noexcept {}
      };
      FinalAwaiter final_suspend() const noexcept { return {}; }
      void return_void() const noexcept {}
      void unhandled_exception() {
        sim->process_exception_ = std::current_exception();
      }
    };
    std::coroutine_handle<promise_type> handle;
  };

  static Driver drive(Task<> process);

  EventQueue queue_;
  Clock* clock_ = nullptr;  // null = pure discrete-event time
  SimTime now_ = 0;
  EventSeq next_seq_ = 0;
  // Handles whose seq part is below this point at events dropped by the
  // last terminate_all(); cancel_scheduled ignores them.
  EventSeq stale_before_ = 0;
  std::uint64_t next_process_id_ = 1;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  bool tearing_down_ = false;
  std::exception_ptr process_exception_;
  std::unordered_map<std::uint64_t,
                     std::coroutine_handle<Driver::promise_type>>
      processes_;
};

}  // namespace wadc::sim
