#include "sim/event_queue.h"

#include <utility>

#include "common/assert.h"

namespace wadc::sim {

void EventQueue::sift_up(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(k, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], k)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, k);
}

void EventQueue::erase_key(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the erased key was the last one
  place(i, last);
  if (i > 0 && earlier(last, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action.reset();
  s.seq = kNoEventSeq;
  s.heap_pos = kNoSlot;
  s.next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t EventQueue::take_slot(EventSeq seq, Callback action) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    WADC_ASSERT(slot != kNoSlot, "event slot space exhausted");
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.seq = seq;
  return slot;
}

std::uint32_t EventQueue::push(SimTime time, EventSeq seq, Callback action) {
  const std::uint32_t slot = take_slot(seq, std::move(action));
  heap_.push_back(Key{time, seq, slot});
  sift_up(heap_.size() - 1);
  return slot;
}

void EventQueue::push_now(SimTime time, EventSeq seq, Callback action) {
  WADC_DASSERT(fifo_head_ == fifo_.size() || fifo_.back().time <= time,
               "push_now earlier than a pending push_now");
  const std::uint32_t slot = take_slot(seq, std::move(action));
  fifo_.push_back(Key{time, seq, slot});
}

EventQueue::Entry EventQueue::pop() {
  WADC_ASSERT(!empty(), "pop on empty queue");
  Key k;
  if (fifo_head_ != fifo_.size() &&
      (heap_.empty() || earlier(fifo_[fifo_head_], heap_.front()))) {
    k = fifo_[fifo_head_++];
    if (fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    }
  } else {
    k = heap_.front();
    erase_key(0);
  }
  Slot& s = slots_[k.slot];
  Entry e{k.time, k.seq, std::move(s.action)};
  free_slot(k.slot);
  return e;
}

void EventQueue::cancel(std::uint32_t slot, EventSeq seq) {
  WADC_ASSERT(slot < slots_.size() && slots_[slot].seq == seq &&
                  slots_[slot].heap_pos != kNoSlot,
              "cancel of a fired, cancelled, unknown or FIFO event");
  erase_key(slots_[slot].heap_pos);
  free_slot(slot);
}

void EventQueue::clear() {
  heap_.clear();
  fifo_.clear();
  fifo_head_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.action.reset();
    s.seq = kNoEventSeq;
    s.heap_pos = kNoSlot;
    s.next_free = (i + 1 < slots_.size())
                      ? static_cast<std::uint32_t>(i + 1)
                      : kNoSlot;
  }
  free_head_ = slots_.empty() ? kNoSlot : 0;
}

}  // namespace wadc::sim
