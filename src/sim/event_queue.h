// Deterministic pending-event set for the simulation kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "sim/callback.h"
#include "sim/types.h"

namespace wadc::sim {

// A (time, seq)-ordered set of pending events. Events at equal times
// execute in seq order — the order they were scheduled, or, for an event
// scheduled under a seq reserved earlier, the order of the reservation —
// which makes runs exactly reproducible.
//
// Storage is split for the cache: a binary min-heap orders 24-byte Key
// entries (time, seq, slot index) — so a sift moves small trivially
// copyable keys, never a Callback — while the move-only Callback payloads
// sit in a slot vector that is written once at push and read once at pop.
// Slots are recycled LIFO through an intrusive free list, so a steady-state
// run touches a compact, stable working set.
//
// Events pushed at the current time (push_now) skip the heap: they append
// to a FIFO of keys, which pop() drains ahead of any later heap key. About
// half of a run's events are wake-ups at the current time, and each of them
// would otherwise sift from the bottom of the heap to the root and back.
//
// Cancellation is generation-tagged and removes the key at once: each slot
// stores the seq of the event occupying it and the heap position of its
// key, so cancel(slot, seq) takes the key out of the heap in O(log n) and
// frees the slot. The heap holds exactly the pending heap events — a run
// that arms a long timeout per message and cancels nearly all of them keeps
// a small heap — and size(), empty() and next_time() are plain reads.
class EventQueue {
 public:
  struct Entry {
    SimTime time;
    EventSeq seq;
    Callback action;
  };

  bool empty() const { return heap_.empty() && fifo_head_ == fifo_.size(); }
  std::size_t size() const {
    return heap_.size() + (fifo_.size() - fifo_head_);
  }

  // Time of the earliest pending event; queue must be non-empty.
  SimTime next_time() const {
    WADC_ASSERT(!empty(), "next_time on empty queue");
    if (fifo_head_ == fifo_.size()) return heap_.front().time;
    const SimTime t = fifo_[fifo_head_].time;
    return heap_.empty() || t < heap_.front().time ? t : heap_.front().time;
  }

  // Schedules an event. `seq` values must be unique across pushes of both
  // kinds (the caller owns the counter). They usually increase from push
  // to push, but push() also takes a seq older than earlier pushes: the
  // heap orders any key, so an event scheduled under a seq the caller
  // reserved earlier (Simulation::schedule_reserved) pops in the place that
  // seq gives it. Returns the slot index holding the action, for use with
  // cancel().
  std::uint32_t push(SimTime time, EventSeq seq, Callback action);

  // Schedules a non-cancellable event at the current time: no pending
  // event is earlier than `time`, and no later push is earlier than it
  // either (Simulation uses it for t == now()). Its seq must be newer than
  // every pending seq at the same time, so the FIFO stays in (time, seq)
  // order, which a debug check guards; a reserved, older seq goes through
  // push() instead.
  void push_now(SimTime time, EventSeq seq, Callback action);

  // Removes and returns the earliest pending event; queue must be non-empty.
  Entry pop();

  // Cancels the pending event occupying `slot` with generation tag `seq`
  // (both from push). The caller must ensure the event is still pending
  // (pushed, not yet popped or cancelled) — the generation tag turns a
  // violation into an assertion failure instead of corruption.
  void cancel(std::uint32_t slot, EventSeq seq);

  // Drops everything; keeps heap, FIFO and slot capacity for reuse.
  void clear();

  // Keys in the heap: the pending events pushed with push() (read-only,
  // for tests).
  std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Key {
    SimTime time;
    EventSeq seq;
    std::uint32_t slot;
  };

  struct Slot {
    Callback action;
    EventSeq seq = kNoEventSeq;     // kNoEventSeq = vacant (generation tag)
    std::uint32_t next_free = kNoSlot;
    std::uint32_t heap_pos = kNoSlot;  // index of the key in heap_, if any
  };

  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);

  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Writes `k` at heap position `i` and records the position in its slot.
  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    slots_[k.slot].heap_pos = static_cast<std::uint32_t>(i);
  }

  std::uint32_t take_slot(EventSeq seq, Callback action);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes the heap key at position `i`.
  void erase_key(std::size_t i);
  void free_slot(std::uint32_t slot);

  std::vector<Key> heap_;
  // push_now keys in (time, seq) order; fifo_[fifo_head_..] are pending.
  std::vector<Key> fifo_;
  std::size_t fifo_head_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace wadc::sim
