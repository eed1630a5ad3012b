// Unit tests for the fault-injection subsystem: schedules, spec parsing and
// validation, the injector's network mutations, and fault-aware transfers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_schedule.h"
#include "fault/injector.h"
#include "fault/spec_io.h"
#include "net/link_table.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"

namespace wadc::fault {
namespace {

// ---- FaultSchedule / FaultSpec ---------------------------------------------

TEST(FaultSchedule, EmptyByDefault) {
  FaultSchedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.event_count(), 0);
}

TEST(FaultSchedule, EventCountCountsFiniteEndsOnly) {
  FaultSchedule s;
  s.crashes.push_back({1, 10.0, 20.0});               // down + up
  s.crashes.push_back({2, 10.0});                      // permanent: down only
  s.blackouts.push_back({0, 1, 5.0, 8.0});            // begin + end
  s.blackouts.push_back({0, 2, 5.0, sim::kTimeInfinity});  // begin only
  EXPECT_EQ(s.event_count(), 6);
}

TEST(FaultSchedule, RandomIsDeterministicAndRespectsHorizon) {
  RandomFaultParams p;
  p.crash_rate_per_hour = 2.0;
  p.mean_downtime_seconds = 120;
  p.blackout_rate_per_hour = 1.0;
  p.mean_blackout_seconds = 60;
  p.horizon_seconds = 7200;
  const FaultSchedule a = FaultSchedule::random(p, 5, 42);
  const FaultSchedule b = FaultSchedule::random(p, 5, 42);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  ASSERT_EQ(a.blackouts.size(), b.blackouts.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].host, b.crashes[i].host);
    EXPECT_DOUBLE_EQ(a.crashes[i].at, b.crashes[i].at);
    EXPECT_DOUBLE_EQ(a.crashes[i].restart_at, b.crashes[i].restart_at);
    EXPECT_LT(a.crashes[i].at, p.horizon_seconds);
  }
  EXPECT_GT(a.crashes.size() + a.blackouts.size(), 0u);
}

TEST(FaultSchedule, RandomProtectsClientWhenAsked) {
  RandomFaultParams p;
  p.crash_rate_per_hour = 10.0;
  p.horizon_seconds = 36000;
  p.protect_client = true;
  const FaultSchedule s = FaultSchedule::random(p, 4, 7);
  for (const HostCrash& c : s.crashes) EXPECT_NE(c.host, 0);
}

TEST(FaultSchedule, RandomPerHostStreamsAreStable) {
  // Host 1's crash stream must not depend on how many hosts exist.
  RandomFaultParams p;
  p.crash_rate_per_hour = 3.0;
  p.horizon_seconds = 7200;
  const FaultSchedule small = FaultSchedule::random(p, 3, 99);
  const FaultSchedule big = FaultSchedule::random(p, 8, 99);
  std::vector<double> small_h1, big_h1;
  for (const auto& c : small.crashes) {
    if (c.host == 1) small_h1.push_back(c.at);
  }
  for (const auto& c : big.crashes) {
    if (c.host == 1) big_h1.push_back(c.at);
  }
  EXPECT_EQ(small_h1, big_h1);
}

TEST(FaultSpec, ValidateCatchesBadEvents) {
  FaultSpec spec;
  EXPECT_TRUE(spec.validate(4).empty());

  spec.crashes.push_back({9, 10.0, 20.0});  // host out of range
  EXPECT_FALSE(spec.validate(4).empty());
  spec.crashes.clear();

  spec.crashes.push_back({1, 10.0, 5.0});  // restart before crash
  EXPECT_FALSE(spec.validate(4).empty());
  spec.crashes.clear();

  spec.blackouts.push_back({1, 1, 0.0, 5.0});  // self-link
  EXPECT_FALSE(spec.validate(4).empty());
  spec.blackouts.clear();

  spec.drop_probability = 1.5;
  EXPECT_FALSE(spec.validate(4).empty());
  spec.drop_probability = 0;

  spec.random.crash_rate_per_hour = -1;
  EXPECT_FALSE(spec.validate(4).empty());
}

// A random schedule is drawn whole before the run, so validate() bounds
// the number of events its processes expect over the horizon.
TEST(FaultSpec, ValidateBoundsTheExpectedRandomEventCount) {
  FaultSpec spec;
  // 3 host pairs x 3600 blackouts an hour x 1e8 s / 3600 = 3e8 events.
  spec.random.blackout_rate_per_hour = 3600;
  spec.random.mean_blackout_seconds = 0.001;
  spec.random.horizon_seconds = 1e8;
  const std::string problem = spec.validate(3);
  EXPECT_NE(problem.find("about 300000000 events"), std::string::npos)
      << problem;
  EXPECT_NE(problem.find("bound of 1000000"), std::string::npos) << problem;
  // 92 hours: 993,600 events, just under the bound.
  spec.random.horizon_seconds = 92 * 3600;
  EXPECT_EQ(spec.validate(3), "");

  // Crashes count once per crashable host: 120 hours at 1000 an hour on 8
  // servers is 960,000 events, and 1,080,000 once the client may crash too.
  FaultSpec crashes;
  crashes.random.crash_rate_per_hour = 1000;
  crashes.random.horizon_seconds = 120 * 3600;
  EXPECT_EQ(crashes.validate(9), "");
  crashes.random.protect_client = false;
  EXPECT_NE(crashes.validate(9).find("about 1080000 events"),
            std::string::npos)
      << crashes.validate(9);
}

TEST(FaultSpec, BuildMergesExplicitAndRandom) {
  FaultSpec spec;
  spec.crashes.push_back({1, 100.0, 200.0});
  spec.random.crash_rate_per_hour = 5.0;
  spec.random.horizon_seconds = 3600;
  const FaultSchedule s = spec.build(4, 11);
  EXPECT_GE(s.crashes.size(), 1u);
  EXPECT_EQ(s.crashes.front().host, 1);
  EXPECT_DOUBLE_EQ(s.crashes.front().at, 100.0);
}

// ---- spec_io ---------------------------------------------------------------

TEST(FaultSpecIo, ParsesEveryKeyword) {
  const FaultSpec spec = parse_fault_spec(
      "# comment\n"
      "crash 2 100 250    # transient\n"
      "crash 3 500\n"
      "blackout 0 1 10 20\n"
      "drop 0.25\n"
      "rate crash 1.5 90\n"
      "rate blackout 0.5 45\n"
      "horizon 7200\n"
      "protect_client 0\n");
  ASSERT_EQ(spec.crashes.size(), 2u);
  EXPECT_EQ(spec.crashes[0].host, 2);
  EXPECT_DOUBLE_EQ(spec.crashes[0].at, 100.0);
  EXPECT_DOUBLE_EQ(spec.crashes[0].restart_at, 250.0);
  EXPECT_EQ(spec.crashes[1].restart_at, sim::kTimeInfinity);
  ASSERT_EQ(spec.blackouts.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.blackouts[0].end, 20.0);
  EXPECT_DOUBLE_EQ(spec.drop_probability, 0.25);
  EXPECT_DOUBLE_EQ(spec.random.crash_rate_per_hour, 1.5);
  EXPECT_DOUBLE_EQ(spec.random.mean_downtime_seconds, 90.0);
  EXPECT_DOUBLE_EQ(spec.random.blackout_rate_per_hour, 0.5);
  EXPECT_DOUBLE_EQ(spec.random.horizon_seconds, 7200.0);
  EXPECT_FALSE(spec.random.protect_client);
}

TEST(FaultSpecIo, RejectsMalformedLinesWithLineNumbers) {
  EXPECT_THROW(parse_fault_spec("bogus 1 2\n"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("crash 1\n"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("crash 1 10 20 30\n"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("drop\n"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("rate sideways 1 2\n"), std::runtime_error);
  try {
    parse_fault_spec("drop 0.1\nblackout 0\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// ---- FaultInjector + fault-aware Network -----------------------------------

struct FaultFixture {
  explicit FaultFixture(FaultSchedule schedule)
      : tr(10.0, {1000.0}), links(3) {
    links.set_link(0, 1, &tr);
    links.set_link(0, 2, &tr);
    links.set_link(1, 2, &tr);
    network = std::make_unique<net::Network>(sim, links, net::NetworkParams{});
    injector = std::make_unique<FaultInjector>(sim, *network,
                                               std::move(schedule), 1);
  }
  sim::Simulation sim;
  trace::BandwidthTrace tr;
  net::LinkTable links;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<FaultInjector> injector;
};

TEST(FaultInjector, AppliesCrashAndRestartToNetwork) {
  FaultSchedule s;
  s.crashes.push_back({1, 5.0, 9.0});
  FaultFixture f(std::move(s));
  std::vector<FaultEvent> seen;
  f.injector->add_listener([&](const FaultEvent& ev) {
    seen.push_back(ev);
    if (ev.kind == FaultEvent::Kind::kHostDown) {
      EXPECT_FALSE(f.network->host_alive(1));  // mutation precedes listeners
    } else {
      EXPECT_TRUE(f.network->host_alive(1));
    }
  });
  f.injector->arm();
  f.sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, FaultEvent::Kind::kHostDown);
  EXPECT_DOUBLE_EQ(seen[0].time, 5.0);
  EXPECT_EQ(seen[1].kind, FaultEvent::Kind::kHostUp);
  EXPECT_DOUBLE_EQ(seen[1].time, 9.0);
  EXPECT_EQ(f.injector->events_injected(), 2);
  EXPECT_EQ(f.injector->events_total(), 2);
}

// arm() schedules only the first fault; each fault schedules the next
// under a seq reserved at arm(). Every fault must still pop at the
// (time, seq) key that scheduling all of them at arm() gives it, and the
// heap must never hold more than one fault. At t = 300 a fault ties with
// a second fault, a timer scheduled before arm(), a timer scheduled after
// arm() but before the preceding fault (t = 200) fires, and a zero-delay
// timer the first of those schedules at t = 300. Up-front arming orders
// them by seq: the early timer (scheduled first), both faults (reserved at
// arm()), the late timer, then the zero-delay timer (scheduled last).
// Re-arming each fault under a fresh seq when its predecessor fires would
// put the late timer ahead of both faults, and a reserved fault queued
// behind the current-time FIFO would pop after the zero-delay timer.
TEST(FaultInjector, TimelineKeepsTheUpFrontTieOrder) {
  FaultSchedule s;
  s.crashes.push_back({1, 100.0, 200.0});
  s.crashes.push_back({2, 300.0});
  s.blackouts.push_back({0, 1, 300.0, 400.0});
  FaultFixture f(std::move(s));
  std::vector<std::string> order;
  int timers_in_heap = 0;  // pending timers scheduled in the future
  const auto check_heap = [&] {
    EXPECT_LE(f.sim.heap_size(),
              static_cast<std::size_t>(timers_in_heap) + 1)
        << "more than one fault event in the heap at t=" << f.sim.now();
  };
  const auto note = [&](const std::string& what) {
    order.push_back(what + " @" + std::to_string(static_cast<int>(
                                      f.sim.now())));
    check_heap();
  };
  f.injector->add_listener([&](const FaultEvent& ev) {
    note(std::string(fault_event_name(ev.kind)));
  });

  ++timers_in_heap;
  f.sim.schedule_at(300.0, [&] {
    --timers_in_heap;
    note("timer before arm");
    f.sim.schedule_in(0.0, [&] { note("zero-delay timer"); });
  });
  f.injector->arm();
  EXPECT_EQ(f.sim.heap_size(), 2u);  // the early timer and the first fault
  ++timers_in_heap;
  f.sim.schedule_at(300.0, [&] {
    --timers_in_heap;
    note("timer after arm");
  });
  f.sim.run();

  const std::vector<std::string> up_front = {
      "crash @100",          "restart @200",
      "timer before arm @300", "crash @300",
      "blackout_begin @300", "timer after arm @300",
      "zero-delay timer @300", "blackout_end @400"};
  EXPECT_EQ(order, up_front);
  EXPECT_EQ(f.injector->events_injected(), 5);
  EXPECT_EQ(f.sim.heap_size(), 0u);
}

TEST(FaultInjector, HostRestartsAfterDistinguishesTransientFromPermanent) {
  FaultSchedule s;
  s.crashes.push_back({1, 5.0, 9.0});
  s.crashes.push_back({2, 5.0});
  FaultFixture f(std::move(s));
  EXPECT_TRUE(f.injector->host_restarts_after(1, 5.0));
  EXPECT_FALSE(f.injector->host_restarts_after(1, 9.0));
  EXPECT_FALSE(f.injector->host_restarts_after(2, 5.0));
}

TEST(FaultInjector, CrashMidFlightFailsTheTransfer) {
  FaultSchedule s;
  s.crashes.push_back({1, 1.0, 50.0});
  FaultFixture f(std::move(s));
  net::TransferRecord rec;
  f.sim.spawn([](net::Network& n, net::TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 10000.0);  // 10 s at 1000 B/s
  }(*f.network, rec));
  f.injector->arm();
  f.sim.run();
  EXPECT_EQ(rec.outcome, net::TransferOutcome::kFailed);
  EXPECT_FALSE(rec.ok());
  EXPECT_DOUBLE_EQ(rec.completed, 1.0);
  EXPECT_EQ(f.network->transfers_failed(), 1u);
}

TEST(FaultInjector, QueuedTransferWaitsOutACrashThenRuns) {
  // Transfer requested at t=2 while host 1 is down (crashed at 1, back at
  // 9): it must queue, not fail, and complete after the restart.
  FaultSchedule s;
  s.crashes.push_back({1, 1.0, 9.0});
  FaultFixture f(std::move(s));
  net::TransferRecord rec;
  f.sim.spawn([](sim::Simulation& sim, net::Network& n,
                 net::TransferRecord& out) -> sim::Task<> {
    co_await sim.delay(2.0);
    out = co_await n.transfer(0, 1, 1000.0);
  }(f.sim, *f.network, rec));
  f.injector->arm();
  f.sim.run();
  EXPECT_TRUE(rec.ok());
  EXPECT_GE(rec.started, 9.0);
}

TEST(FaultInjector, BlackoutFailsInFlightAndBlocksNewStarts) {
  FaultSchedule s;
  s.blackouts.push_back({0, 1, 1.0, 8.0});
  FaultFixture f(std::move(s));
  net::TransferRecord in_flight, queued;
  f.sim.spawn([](net::Network& n, net::TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 10000.0);
  }(*f.network, in_flight));
  f.sim.spawn([](sim::Simulation& sim, net::Network& n,
                 net::TransferRecord& out) -> sim::Task<> {
    co_await sim.delay(2.0);
    out = co_await n.transfer(1, 0, 500.0);
  }(f.sim, *f.network, queued));
  f.injector->arm();
  f.sim.run();
  EXPECT_EQ(in_flight.outcome, net::TransferOutcome::kFailed);
  EXPECT_DOUBLE_EQ(in_flight.completed, 1.0);
  EXPECT_TRUE(queued.ok());
  EXPECT_GE(queued.started, 8.0);  // waited for the blackout to lift
}

TEST(FaultInjector, TransferTimeoutFires) {
  FaultSchedule s;
  s.crashes.push_back({1, 1.0});  // permanent: the transfer can never start
  FaultFixture f(std::move(s));
  net::TransferRecord rec;
  f.sim.spawn([](sim::Simulation& sim, net::Network& n,
                 net::TransferRecord& out) -> sim::Task<> {
    co_await sim.delay(2.0);  // request after the crash: it queues forever
    out = co_await n.transfer(0, 1, 10000.0, net::kDataPriority,
                              /*timeout_seconds=*/30.0);
  }(f.sim, *f.network, rec));
  f.injector->arm();
  f.sim.run();
  EXPECT_EQ(rec.outcome, net::TransferOutcome::kTimedOut);
  EXPECT_DOUBLE_EQ(rec.completed, 32.0);  // requested at 2 + 30 s deadline
  EXPECT_EQ(f.network->transfers_timed_out(), 1u);
}

TEST(FaultInjector, DropProbabilityFailsSomeTransfersDeterministically) {
  FaultSchedule s;
  s.drop_probability = 0.5;
  auto run_once = [&]() {
    FaultFixture f(FaultSchedule{s});
    f.injector->arm();
    auto driver = [](net::Network& n, int* failed) -> sim::Task<> {
      for (int i = 0; i < 40; ++i) {
        const auto rec = co_await n.transfer(0, 1, 100.0);
        if (!rec.ok()) ++*failed;
      }
    };
    int failed = 0;
    f.sim.spawn(driver(*f.network, &failed));
    f.sim.run();
    return failed;
  };
  const int first = run_once();
  EXPECT_GT(first, 0);
  EXPECT_LT(first, 40);
  EXPECT_EQ(first, run_once());  // same seed, same drops
}

}  // namespace
}  // namespace wadc::fault
