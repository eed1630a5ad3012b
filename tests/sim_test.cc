// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace wadc::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, 0, [&] { order.push_back(3); });
  q.push(1.0, 1, [&] { order.push_back(1); });
  q.push(2.0, 2, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySequence) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, static_cast<EventSeq>(i), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(7.0, 0, [] {});
  q.push(2.5, 1, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, CurrentTimeEventsPopBetweenEarlierAndLaterKeys) {
  EventQueue q;
  std::vector<int> order;
  q.push(5.0, 0, [&] { order.push_back(0); });
  q.push(5.0, 1, [&] { order.push_back(1); });
  q.push(6.0, 2, [&] { order.push_back(2); });
  q.pop().action();  // time is now 5
  q.push_now(5.0, 3, [&] { order.push_back(3); });
  q.push(5.0, 4, [&] { order.push_back(4); });
  q.push_now(5.0, 5, [&] { order.push_back(5); });
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.heap_size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 5, 2}));
}

TEST(EventQueue, CancelledTimeoutsLeaveNoKeyInTheHeap) {
  // The shape of a fault-mode run: every message arms a timeout far in the
  // future and cancels it when the message lands. A cancelled timeout must
  // leave the heap at once rather than wait for its deadline to surface.
  EventQueue q;
  int fired = 0;
  q.push(1.0, 0, [&] { ++fired; });
  constexpr int kTimeouts = 10000;
  for (int i = 0; i < kTimeouts; ++i) {
    const auto seq = static_cast<EventSeq>(i + 1);
    const std::uint32_t slot =
        q.push(450.0 + static_cast<double>(i), seq, [&] { fired += 100; });
    q.cancel(slot, seq);
  }
  EXPECT_EQ(q.heap_size(), 1u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.pop().action();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_size(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CurrentTimeWakeUpsRunAfterEarlierSameTimeEvents) {
  // A wake-up scheduled at now() runs after the same-time events that were
  // already queued, and before anything scheduled after it — including a
  // cancellable event at the same time.
  Simulation sim;
  std::vector<char> order;
  sim.schedule_at(5.0, [&] {
    order.push_back('a');
    sim.schedule_at(sim.now(), [&] { order.push_back('c'); });
    (void)sim.schedule_at_cancellable(sim.now(),
                                      [&] { order.push_back('e'); });
    sim.schedule_in(0.0, [&] { order.push_back('f'); });
  });
  sim.schedule_at(5.0, [&] { order.push_back('b'); });
  sim.schedule_at(6.0, [&] { order.push_back('g'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'e', 'f', 'g'}));
}

TEST(Simulation, RunsScheduledCallbacksAtTheirTimes) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_at(1.5, [&] { times.push_back(sim.now()); });
  sim.schedule_at(0.5, [&] { times.push_back(sim.now()); });
  sim.schedule_in(3.0, [&] { times.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), Simulation::RunStatus::kIdle);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, TimeLimitStopsBeforeLaterEvents) {
  Simulation sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(10.0, [&] { ++ran; });
  EXPECT_EQ(sim.run(5.0), Simulation::RunStatus::kTimeLimit);
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  // The later event is still pending and runs on the next call.
  EXPECT_EQ(sim.run(), Simulation::RunStatus::kIdle);
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, RequestStopEndsTheRun) {
  Simulation sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] {
    ++ran;
    sim.request_stop();
  });
  sim.schedule_at(2.0, [&] { ++ran; });
  EXPECT_EQ(sim.run(), Simulation::RunStatus::kStopped);
  EXPECT_EQ(ran, 1);
}

TEST(Simulation, DelaySuspendsProcesses) {
  Simulation sim;
  std::vector<double> wakes;
  sim.spawn([](Simulation& s, std::vector<double>& w) -> Task<> {
    co_await s.delay(2.0);
    w.push_back(s.now());
    co_await s.delay(3.0);
    w.push_back(s.now());
  }(sim, wakes));
  sim.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_DOUBLE_EQ(wakes[0], 2.0);
  EXPECT_DOUBLE_EQ(wakes[1], 5.0);
}

TEST(Simulation, ZeroDelayYieldsThroughTheQueue) {
  Simulation sim;
  std::vector<int> order;
  sim.spawn([](Simulation& s, std::vector<int>& o) -> Task<> {
    o.push_back(1);
    co_await s.delay(0);
    o.push_back(3);
  }(sim, order));
  sim.schedule_at(0, [&] { order.push_back(2); });
  sim.run();
  // The process starts first (spawned first), yields, the callback runs,
  // then the process resumes.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, NestedTasksPropagateValues) {
  Simulation sim;
  int result = 0;
  auto leaf = [](Simulation& s) -> Task<int> {
    co_await s.delay(1.0);
    co_return 21;
  };
  sim.spawn([](Simulation& s, int& out, auto leaf_fn) -> Task<> {
    const int a = co_await leaf_fn(s);
    const int b = co_await leaf_fn(s);
    out = a + b;
  }(sim, result, leaf));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulation, ProcessExceptionPropagatesToRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<> {
    co_await s.delay(1.0);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, TerminateAllReclaimsSuspendedProcesses) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<> {
    co_await s.delay(1e9);  // never resumes
  }(sim));
  sim.run(10.0);
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.terminate_all();
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(Simulation, FinishedProcessesAreReclaimed) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.spawn([](Simulation& s) -> Task<> { co_await s.delay(1.0); }(sim));
  }
  sim.run();
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(Simulation, DeterministicEventCount) {
  auto run_once = [] {
    Simulation sim;
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
      sim.schedule_at(rng.uniform(0, 100), [] {});
    }
    sim.run();
    return sim.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- Event --------------------------------------------------------------

TEST(Event, TriggerWakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, int& w) -> Task<> {
      co_await e.wait();
      ++w;
    }(ev, woken));
  }
  sim.schedule_at(5.0, [&] { ev.trigger(); });
  sim.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(ev.waiter_count(), 0u);
}

TEST(Event, ResetsAfterTrigger) {
  Simulation sim;
  Event ev(sim);
  std::vector<double> wakes;
  sim.spawn([](Simulation& s, Event& e, std::vector<double>& w) -> Task<> {
    co_await e.wait();
    w.push_back(s.now());
    co_await e.wait();
    w.push_back(s.now());
  }(sim, ev, wakes));
  sim.schedule_at(1.0, [&] { ev.trigger(); });
  sim.schedule_at(2.0, [&] { ev.trigger(); });
  sim.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_DOUBLE_EQ(wakes[0], 1.0);
  EXPECT_DOUBLE_EQ(wakes[1], 2.0);
}

// ---- Mailbox ---------------------------------------------------------------

TEST(Mailbox, DeliversInFifoOrder) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& g) -> Task<> {
    for (int i = 0; i < 3; ++i) g.push_back(co_await m.receive());
  }(mb, got));
  mb.send(1);
  mb.send(2);
  mb.send(3);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, ReceiverBlocksUntilSend) {
  Simulation sim;
  Mailbox<int> mb(sim);
  double received_at = -1;
  sim.spawn([](Simulation& s, Mailbox<int>& m, double& t) -> Task<> {
    (void)co_await m.receive();
    t = s.now();
  }(sim, mb, received_at));
  sim.schedule_at(4.0, [&] { mb.send(7); });
  sim.run();
  EXPECT_DOUBLE_EQ(received_at, 4.0);
}

TEST(Mailbox, MultipleWaitersServedFifo) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 3; ++w) {
    sim.spawn([](Mailbox<int>& m, std::vector<std::pair<int, int>>& g,
                 int id) -> Task<> {
      const int v = co_await m.receive();
      g.push_back({id, v});
    }(mb, got, w));
  }
  sim.schedule_at(1.0, [&] {
    mb.send(10);
    mb.send(11);
    mb.send(12);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 11}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 12}));
}

TEST(Mailbox, TryReceiveRaceRequeuesWaiter) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  const auto receiver = [](Mailbox<int>& m,
                           std::vector<std::pair<int, int>>& g,
                           int id) -> Task<> {
    g.push_back({id, co_await m.receive()});
  };
  sim.spawn(receiver(mb, got, 0));
  // Send wakes the waiting receiver through the queue, but a second
  // receiver that starts at the same instant runs first, finds the item
  // buffered and takes it; the first receiver must get the next one.
  sim.schedule_at(1.0, [&] {
    sim.spawn(receiver(mb, got, 1));
    mb.send(1);
  });
  sim.schedule_at(2.0, [&] { mb.send(2); });
  sim.run();
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{1, 1}, {0, 2}}));
}

// ---- Resource --------------------------------------------------------------

TEST(Resource, SerializesExclusiveHolders) {
  Simulation sim;
  Resource res(sim, 1);
  std::vector<double> start_times;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Resource& r,
                 std::vector<double>& starts) -> Task<> {
      auto hold = co_await r.acquire();
      starts.push_back(s.now());
      co_await s.delay(10.0);
    }(sim, res, start_times));
  }
  sim.run();
  ASSERT_EQ(start_times.size(), 3u);
  EXPECT_DOUBLE_EQ(start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(start_times[1], 10.0);
  EXPECT_DOUBLE_EQ(start_times[2], 20.0);
}

TEST(Resource, MultipleUnitsRunConcurrently) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<double> start_times;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation& s, Resource& r,
                 std::vector<double>& starts) -> Task<> {
      auto hold = co_await r.acquire();
      starts.push_back(s.now());
      co_await s.delay(10.0);
    }(sim, res, start_times));
  }
  sim.run();
  ASSERT_EQ(start_times.size(), 4u);
  EXPECT_DOUBLE_EQ(start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(start_times[1], 0.0);
  EXPECT_DOUBLE_EQ(start_times[2], 10.0);
  EXPECT_DOUBLE_EQ(start_times[3], 10.0);
}

TEST(Resource, HoldReleasesOnScopeExit) {
  Simulation sim;
  Resource res(sim, 1);
  EXPECT_EQ(res.available(), 1);
  sim.spawn([](Simulation& s, Resource& r) -> Task<> {
    {
      auto hold = co_await r.acquire();
      EXPECT_EQ(r.available(), 0);
      co_await s.delay(1.0);
    }
    EXPECT_EQ(r.available(), 1);
  }(sim, res));
  sim.run();
  EXPECT_EQ(res.available(), 1);
}

TEST(Resource, MovedHoldReleasesOnce) {
  Simulation sim;
  Resource res(sim, 1);
  sim.spawn([](Simulation& s, Resource& r) -> Task<> {
    auto hold = co_await r.acquire();
    ResourceHold moved = std::move(hold);
    EXPECT_FALSE(hold.holds());
    EXPECT_TRUE(moved.holds());
    co_await s.delay(1.0);
  }(sim, res));
  sim.run();
  EXPECT_EQ(res.available(), 1);
}

// ---- cancellable scheduling -------------------------------------------------

TEST(Cancellation, CancelledActionNeverRuns) {
  Simulation sim;
  int fired = 0;
  const EventSeq a = sim.schedule_at_cancellable(10.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&, a] { sim.cancel_scheduled(a); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // the cancelled event never advanced time
}

TEST(Cancellation, UncancelledActionStillRuns) {
  Simulation sim;
  int fired = 0;
  (void)sim.schedule_at_cancellable(10.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Cancellation, NoEventSeqIsIgnored) {
  Simulation sim;
  sim.cancel_scheduled(kNoEventSeq);  // must be a no-op
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Cancellation, CancelAfterTeardownIsIgnored) {
  Simulation sim;
  const EventSeq a = sim.schedule_at_cancellable(10.0, [] {});
  sim.terminate_all();  // clears the queue
  sim.cancel_scheduled(a);  // late cancel of an already-dropped event: no-op
  EXPECT_EQ(sim.run(), Simulation::RunStatus::kIdle);
}

TEST(Cancellation, ManyInterleavedCancelsLeaveSurvivorsIntact) {
  Simulation sim;
  std::vector<EventSeq> ids;
  std::vector<int> fired(20, 0);
  for (int i = 0; i < 20; ++i) {
    ids.push_back(sim.schedule_at_cancellable(
        static_cast<double>(10 + i), [&fired, i] { ++fired[i]; }));
  }
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 20; i += 2) sim.cancel_scheduled(ids[i]);
  });
  sim.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fired[i], i % 2) << "event " << i;
}

// ---- property-style stress --------------------------------------------------

class SimStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimStressTest, ManyProducersConsumersDrainExactly) {
  Simulation sim;
  Mailbox<int> mb(sim);
  Rng rng(GetParam());
  const int producers = 5;
  const int items_each = 40;
  int consumed = 0;
  long checksum = 0;
  long sent_checksum = 0;

  for (int p = 0; p < producers; ++p) {
    std::vector<double> delays;
    std::vector<int> values;
    for (int i = 0; i < items_each; ++i) {
      delays.push_back(rng.uniform(0, 50));
      const int v = p * 1000 + i;
      values.push_back(v);
      sent_checksum += v;
    }
    sim.spawn([](Simulation& s, Mailbox<int>& m, std::vector<double> ds,
                 std::vector<int> vs) -> Task<> {
      for (std::size_t i = 0; i < ds.size(); ++i) {
        co_await s.delay(ds[i]);
        m.send(vs[i]);
      }
    }(sim, mb, std::move(delays), std::move(values)));
  }
  sim.spawn([](Mailbox<int>& m, int& n, long& sum, int total) -> Task<> {
    for (int i = 0; i < total; ++i) {
      sum += co_await m.receive();
      ++n;
    }
  }(mb, consumed, checksum, producers * items_each));

  sim.run();
  EXPECT_EQ(consumed, producers * items_each);
  EXPECT_EQ(checksum, sent_checksum);
  EXPECT_TRUE(mb.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimStressTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace wadc::sim
