#include "sim/simulation.h"

#include <utility>
#include <vector>

#include "common/assert.h"

namespace wadc::sim {

Simulation::~Simulation() { terminate_all(); }

void Simulation::schedule_at(SimTime t, Callback action) {
  if (tearing_down_) return;  // wake-ups during teardown are dropped
  WADC_ASSERT(t >= now_, "scheduling into the past: t=", t, " now=", now_);
  if (t == now_) {
    queue_.push_now(t, next_seq_++, std::move(action));
  } else {
    queue_.push(t, next_seq_++, std::move(action));
  }
}

void Simulation::schedule_in(SimTime dt, Callback action) {
  WADC_ASSERT(dt >= 0, "negative delay: ", dt);
  schedule_at(now_ + dt, std::move(action));
}

EventSeq Simulation::schedule_at_cancellable(SimTime t, Callback action) {
  if (tearing_down_) return kNoEventSeq;
  WADC_ASSERT(t >= now_, "scheduling into the past: t=", t, " now=", now_);
  const EventSeq seq = next_seq_++;
  WADC_ASSERT(seq < kHandleSeqMask, "event sequence space exhausted");
  const std::uint32_t slot = queue_.push(t, seq, std::move(action));
  WADC_ASSERT(slot < (1u << (64 - kHandleSeqBits)),
              "event slot does not fit in a cancellation handle");
  return (static_cast<EventSeq>(slot) << kHandleSeqBits) | seq;
}

EventSeq Simulation::reserve_seqs(std::size_t count) {
  const EventSeq first = next_seq_;
  next_seq_ += count;
  return first;
}

void Simulation::schedule_reserved(SimTime t, EventSeq seq, Callback action) {
  if (tearing_down_) return;
  WADC_ASSERT(t >= now_, "scheduling into the past: t=", t, " now=", now_);
  WADC_ASSERT(seq < next_seq_, "sequence number ", seq, " was not reserved");
  queue_.push(t, seq, std::move(action));
}

void Simulation::cancel_scheduled(EventSeq id) {
  if (id == kNoEventSeq || tearing_down_) return;
  const EventSeq seq = id & kHandleSeqMask;
  if (seq < stale_before_) return;
  queue_.cancel(static_cast<std::uint32_t>(id >> kHandleSeqBits), seq);
}

Simulation::Driver Simulation::drive(Task<> process) {
  co_await std::move(process);
}

std::uint64_t Simulation::spawn(Task<> process) {
  WADC_ASSERT(!tearing_down_, "spawn during teardown");
  Driver driver = drive(std::move(process));
  auto handle = driver.handle;
  const std::uint64_t id = next_process_id_++;
  handle.promise().sim = this;
  handle.promise().id = id;
  processes_.emplace(id, handle);
  schedule_at(now_, [handle] { handle.resume(); });
  return id;
}

Simulation::RunStatus Simulation::run(SimTime until) {
  stop_requested_ = false;
  for (;;) {
    if (clock_ != nullptr) {
      // Realtime pacing: wait for the clock to reach the next event's
      // timestamp (or for external activity to inject an earlier one)
      // before dispatching. The queue may be empty while I/O is still in
      // flight — only the clock knows whether more events can arrive.
      const SimTime t = queue_.empty() ? kTimeInfinity : queue_.next_time();
      const SimTime horizon = t < until ? t : until;
      const Clock::Wait w = clock_->wait_until(horizon);
      if (w == Clock::Wait::kRecheck) continue;
      if (w == Clock::Wait::kExhausted && queue_.empty()) {
        return RunStatus::kIdle;
      }
      if (queue_.empty() || queue_.next_time() > until) {
        now_ = until;
        return RunStatus::kTimeLimit;
      }
    } else {
      if (queue_.empty()) return RunStatus::kIdle;
      if (queue_.next_time() > until) {
        now_ = until;
        return RunStatus::kTimeLimit;
      }
    }
    EventQueue::Entry entry = queue_.pop();
    now_ = entry.time;
    entry.action();
    ++events_processed_;
    if (process_exception_) {
      std::exception_ptr e = std::exchange(process_exception_, nullptr);
      std::rethrow_exception(e);
    }
    if (stop_requested_) return RunStatus::kStopped;
  }
}

void Simulation::terminate_all() {
  tearing_down_ = true;
  queue_.clear();
  stale_before_ = next_seq_;  // every outstanding cancel handle is now stale
  // Destroying a frame can run destructors that touch other processes'
  // synchronization state; with the queue cleared and tearing_down_ set,
  // any wake-ups they try to schedule are dropped. Destruction can also
  // erase other entries from processes_ (not in the current design, but
  // cheap to be safe about), so snapshot the handles first.
  std::vector<std::coroutine_handle<Driver::promise_type>> handles;
  handles.reserve(processes_.size());
  for (auto& [id, h] : processes_) handles.push_back(h);
  processes_.clear();
  for (auto h : handles) h.destroy();
  tearing_down_ = false;
}

void Simulation::reset() {
  terminate_all();
  clock_ = nullptr;  // reused contexts return to pure discrete-event time
  now_ = 0;
  next_seq_ = 0;
  stale_before_ = 0;
  next_process_id_ = 1;
  events_processed_ = 0;
  stop_requested_ = false;
  process_exception_ = nullptr;
}

}  // namespace wadc::sim
