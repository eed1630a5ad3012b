// Randomized cross-check of the event queue against a reference ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "sim/event_queue.h"

namespace wadc::sim {
namespace {

// One round of randomized push/push_now/cancel/pop against a reference
// model, used the way Simulation uses the queue: pushes are never earlier
// than the current time (the time of the last pop), push_now schedules at
// the current time and cannot be cancelled. Returns the number of events
// processed (for the bounded runner's count).
int fuzz_round_with_cancellation(std::uint64_t seed, int steps) {
  Rng rng(seed);
  EventQueue queue;
  struct Ref {
    SimTime time;
    EventSeq seq;
    std::uint32_t slot;  // kNoSlot for push_now events
  };
  constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);
  const auto before = [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  std::vector<Ref> live;  // pushed, not yet popped or cancelled
  EventSeq seq = 0;
  SimTime now = 0;
  int processed = 0;

  for (int step = 0; step < steps; ++step) {
    const double dice = rng.next_double();
    std::vector<std::size_t> in_heap;  // indices into `live`
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].slot != kNoSlot) in_heap.push_back(i);
    }
    if (live.empty() || dice < 0.35) {
      // Coarse times force plenty of ties to exercise the seq tiebreak.
      const SimTime t = now + static_cast<double>(rng.next_below(50));
      const std::uint32_t slot = queue.push(t, seq, [] {});
      live.push_back(Ref{t, seq, slot});
      ++seq;
    } else if (dice < 0.5) {
      queue.push_now(now, seq, [] {});
      live.push_back(Ref{now, seq, kNoSlot});
      ++seq;
    } else if (dice < 0.7 && !in_heap.empty()) {
      // Cancel a random live heap event (never one already cancelled or
      // popped: that is the documented contract of cancel()).
      const std::size_t pick = in_heap[rng.next_below(in_heap.size())];
      queue.cancel(live[pick].slot, live[pick].seq);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ++processed;
    } else {
      const auto e = queue.pop();
      // Must be the (time, seq) minimum of the *live* set — cancelled
      // events must never surface.
      auto it = std::min_element(live.begin(), live.end(), before);
      EXPECT_EQ(e.time, it->time);
      EXPECT_EQ(e.seq, it->seq);
      EXPECT_GE(e.time, now);
      now = e.time;
      live.erase(it);
      ++processed;
    }
    EXPECT_EQ(queue.size(), live.size());
    EXPECT_EQ(queue.empty(), live.empty());
    // Cancelled keys leave the heap at once: it holds exactly the live
    // events pushed with push().
    EXPECT_EQ(queue.heap_size(),
              static_cast<std::size_t>(std::count_if(
                  live.begin(), live.end(),
                  [&](const Ref& r) { return r.slot != kNoSlot; })));
    if (!live.empty()) {
      EXPECT_EQ(queue.next_time(),
                std::min_element(live.begin(), live.end(), before)->time);
    }
    if (::testing::Test::HasFailure()) return processed;
  }
  while (!queue.empty()) {
    queue.pop();
    ++processed;
  }
  return processed;
}

class EventQueueFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzzTest, DrainsInTimeThenSequenceOrder) {
  Rng rng(GetParam());
  EventQueue queue;
  struct Ref {
    SimTime time;
    EventSeq seq;
  };
  std::vector<Ref> reference;
  EventSeq seq = 0;

  // Interleave pushes and pops randomly; popped events must always follow
  // (time, seq) order relative to everything that was in the queue.
  std::vector<Ref> popped;
  for (int step = 0; step < 2000; ++step) {
    const bool push = queue.empty() || rng.bernoulli(0.6);
    if (push) {
      // Coarse times force plenty of ties to exercise the seq tiebreak.
      const SimTime t = static_cast<double>(rng.next_below(50));
      queue.push(t, seq, [] {});
      reference.push_back(Ref{t, seq});
      ++seq;
    } else {
      const auto e = queue.pop();
      popped.push_back(Ref{e.time, e.seq});
      // It must be the minimum of the reference set.
      auto it = std::min_element(reference.begin(), reference.end(),
                                 [](const Ref& a, const Ref& b) {
                                   if (a.time != b.time) return a.time < b.time;
                                   return a.seq < b.seq;
                                 });
      ASSERT_EQ(e.time, it->time);
      ASSERT_EQ(e.seq, it->seq);
      reference.erase(it);
    }
  }
  // Drain the rest: must come out fully sorted.
  while (!queue.empty()) {
    const auto e = queue.pop();
    popped.push_back(Ref{e.time, e.seq});
  }
  for (std::size_t i = popped.size() - reference.size(); i + 1 < popped.size();
       ++i) {
    const bool ordered = popped[i].time < popped[i + 1].time ||
                         (popped[i].time == popped[i + 1].time &&
                          popped[i].seq < popped[i + 1].seq);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 11));

class EventQueueCancelFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueCancelFuzzTest, CancelledEventsNeverSurface) {
  fuzz_round_with_cancellation(GetParam(), 2000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueCancelFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// Cancel/reschedule stress: a handful of timers being continually cancelled
// and re-armed — the retransmit-timer pattern that dominates cancellations
// in the simulator. Hammers slot reuse: every cancel frees a slot that the
// next push immediately reclaims, so generation tags must keep stale heap
// keys from ever resurfacing as live events.
TEST(EventQueueCancelStress, RescheduleRecyclesSlotsWithoutResurrection) {
  Rng rng(0xca11);
  EventQueue queue;
  constexpr int kTimers = 8;
  struct Timer {
    SimTime time = 0;
    EventSeq seq = kNoEventSeq;
    std::uint32_t slot = 0;
    int fired = 0;
  };
  Timer timers[kTimers];
  EventSeq seq = 0;
  SimTime now = 0;

  auto arm = [&](Timer& tm) {
    tm.time = now + 1.0 + static_cast<double>(rng.next_below(10));
    tm.seq = seq;
    tm.slot = queue.push(tm.time, seq, [&tm] { ++tm.fired; });
    ++seq;
  };
  for (auto& tm : timers) arm(tm);

  int fired_total = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(0.7)) {
      // Re-arm a random timer: cancel + push, the hot reschedule path.
      Timer& tm = timers[rng.next_below(kTimers)];
      queue.cancel(tm.slot, tm.seq);
      arm(tm);
    } else {
      auto e = queue.pop();
      ASSERT_GE(e.time, now);
      now = e.time;
      e.action();
      ++fired_total;
      // Exactly one timer matches; it fired exactly once and was live.
      Timer* fired = nullptr;
      for (auto& tm : timers) {
        if (tm.seq == e.seq) {
          ASSERT_EQ(fired, nullptr);
          fired = &tm;
        }
      }
      ASSERT_NE(fired, nullptr) << "a cancelled event resurfaced";
      EXPECT_EQ(fired->fired, 1);
      fired->fired = 0;
      arm(*fired);
    }
    ASSERT_EQ(queue.size(), static_cast<std::size_t>(kTimers));
  }
  EXPECT_GT(fired_total, 0);
  // Slot storage stays bounded by the number of concurrently-pending
  // events, not the number of pushes: clear() then refill must not grow it.
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

// Wall-clock-bounded fuzz for CI: runs rounds with fresh seeds until
// WADC_FUZZ_SECONDS (default 2) of wall time have elapsed. The sanitizer
// job sets WADC_FUZZ_SECONDS=60 for a deeper soak. The value must be a
// whole number >= 1; anything else exits 2 rather than quietly shrinking
// the soak to the default.
TEST(EventQueueFuzzBounded, CancellationSoak) {
  const int budget_seconds =
      env_number<int>("WADC_FUZZ_SECONDS", 1).value_or(2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(budget_seconds);
  std::uint64_t seed = 0x5eed;
  long long processed = 0;
  int rounds = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    processed += fuzz_round_with_cancellation(seed++, 4000);
    ++rounds;
    if (::testing::Test::HasFailure()) break;
  }
  RecordProperty("rounds", rounds);
  EXPECT_GT(processed, 0);
}

}  // namespace
}  // namespace wadc::sim
