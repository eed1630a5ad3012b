// Isolation tests for the TCP loopback backend: the epoll/timerfd loop and
// TcpTransport exercised directly, with no simulation kernel and no engine.
// (tests/ is exempt from the "only src/net may include net/tcp/" layering
// rule precisely so the backend stays testable on its own.)
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/tcp/epoll_loop.h"
#include "net/tcp/frame.h"
#include "net/tcp/tcp_transport.h"

namespace wadc::net::tcp {
namespace {

// Collects (seq, delivered) completion callbacks.
struct Completions {
  std::vector<std::pair<std::uint64_t, bool>> done;

  static void on_done(void* ctx, std::uint64_t seq, bool delivered) {
    static_cast<Completions*>(ctx)->done.push_back({seq, delivered});
  }

  bool has(std::uint64_t seq) const {
    for (const auto& [s, d] : done) {
      if (s == seq) return true;
    }
    return false;
  }
  bool delivered(std::uint64_t seq) const {
    for (const auto& [s, d] : done) {
      if (s == seq) return d;
    }
    return false;
  }
};

// Services the loop until `pred` holds or `timeout_s` of wall time passes.
template <typename Pred>
bool pump_until(EpollLoop& loop, Pred pred, double timeout_s = 5.0) {
  const double deadline = monotonic_seconds() + timeout_s;
  while (!pred()) {
    if (monotonic_seconds() > deadline) return false;
    loop.poll(0.02);
  }
  return true;
}

// All-pairs rate table for `n` hosts, one rate everywhere.
std::vector<double> uniform_rates(int n, double rate) {
  std::vector<double> rates(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(n),
                            rate);
  return rates;
}

TEST(EpollLoopTest, TimerFiresViaTimerfd) {
  EpollLoop loop;
  int fired = 0;
  const double start = monotonic_seconds();
  loop.add_timer(
      start + 0.05,
      [](void* ctx, std::uint64_t) { ++*static_cast<int*>(ctx); }, &fired);
  EXPECT_EQ(loop.timer_count(), 1u);
  ASSERT_TRUE(pump_until(loop, [&] { return fired == 1; }));
  // The timerfd must not fire early.
  EXPECT_GE(monotonic_seconds() - start, 0.05);
  EXPECT_EQ(loop.timer_count(), 0u);
}

TEST(EpollLoopTest, CancelledTimerNeverFires) {
  EpollLoop loop;
  int fired = 0;
  const std::uint64_t id = loop.add_timer(
      monotonic_seconds() + 0.03,
      [](void* ctx, std::uint64_t) { ++*static_cast<int*>(ctx); }, &fired);
  loop.cancel_timer(id);
  EXPECT_EQ(loop.timer_count(), 0u);
  const double until = monotonic_seconds() + 0.08;
  while (monotonic_seconds() < until) loop.poll(0.02);
  EXPECT_EQ(fired, 0);
}

TEST(EpollLoopTest, EarliestOfSeveralTimersFiresFirst) {
  EpollLoop loop;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int tag;
  };
  const double now = monotonic_seconds();
  Ctx late{&order, 2}, early{&order, 1};
  const auto fire = [](void* ctx, std::uint64_t) {
    auto* c = static_cast<Ctx*>(ctx);
    c->order->push_back(c->tag);
  };
  loop.add_timer(now + 0.06, fire, &late);
  loop.add_timer(now + 0.02, fire, &early);
  ASSERT_TRUE(pump_until(loop, [&] { return order.size() == 2; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TcpTransportTest, FramingRoundTripAcrossSizes) {
  EpollLoop loop;
  TcpTransport transport(loop, 2, /*time_scale=*/1, uniform_rates(2, 0));
  Completions completions;
  transport.set_completion(&Completions::on_done, &completions);

  // Logical sizes below, at, and far above the wire cap, plus a fractional
  // byte count (transfer sizes are modeled doubles).
  const std::vector<double> sizes = {1, 100.5, 64 * 1024, 5e6, 3.25e7};
  std::uint64_t seq = 100;
  for (const double bytes : sizes) {
    transport.start_transfer(0, 1, bytes, 0, -1, seq++);
  }
  ASSERT_TRUE(pump_until(
      loop, [&] { return completions.done.size() == sizes.size(); }));

  // Every transfer delivered, in FIFO order per channel.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(completions.done[i].first, 100 + i);
    EXPECT_TRUE(completions.done[i].second);
  }
  EXPECT_EQ(transport.frames_delivered(), sizes.size());
  EXPECT_EQ(transport.inflight(), 0);
  // The wire carries capped payloads: a 32.5 MB logical transfer must not
  // push 32.5 MB through loopback.
  EXPECT_LT(transport.wire_bytes_sent(),
            sizes.size() * (64 * 1024 + sizeof(FrameHeader)) + 1);
}

TEST(TcpTransportTest, ConcurrentTransfersDrainThroughBackpressure) {
  EpollLoop loop;
  TcpTransport transport(loop, 3, /*time_scale=*/1, uniform_rates(3, 0));
  Completions completions;
  transport.set_completion(&Completions::on_done, &completions);

  // Enough full-size frames on every ordered channel to overflow the
  // kernel socket buffers, forcing the EAGAIN -> EPOLLOUT resume path.
  constexpr int kPerChannel = 60;
  std::uint64_t seq = 0;
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      if (src == dst) continue;
      for (int i = 0; i < kPerChannel; ++i) {
        transport.start_transfer(src, dst, 64 * 1024, 0, -1, seq++);
      }
    }
  }
  const std::size_t total = seq;
  EXPECT_GT(transport.inflight(), 0);
  ASSERT_TRUE(pump_until(
      loop, [&] { return completions.done.size() == total; }, 20.0));
  EXPECT_EQ(transport.inflight(), 0);
  for (const auto& [s, delivered] : completions.done) {
    EXPECT_TRUE(delivered) << "seq " << s;
  }
}

TEST(TcpTransportTest, PeerCloseMidTransferSurfacesFailure) {
  EpollLoop loop;
  // Paced slowly so the transfers are still in flight when the channel
  // dies: 1000 logical bytes per wall second.
  TcpTransport transport(loop, 3, /*time_scale=*/1, uniform_rates(3, 1000));
  Completions completions;
  transport.set_completion(&Completions::on_done, &completions);

  transport.start_transfer(0, 1, 50 * 1000, 0, -1, 1);  // ~50 s paced
  transport.start_transfer(0, 2, 100, 0, -1, 2);        // unaffected channel
  EXPECT_EQ(transport.inflight(), 2);

  transport.close_channel(0, 1);  // peer dies mid-transfer
  EXPECT_TRUE(completions.has(1));
  EXPECT_FALSE(completions.delivered(1));

  // A transfer started on the dead channel fails immediately...
  transport.start_transfer(0, 1, 10, 0, -1, 3);
  EXPECT_TRUE(completions.has(3));
  EXPECT_FALSE(completions.delivered(3));

  // ...while the healthy channel still delivers.
  ASSERT_TRUE(pump_until(loop, [&] { return completions.has(2); }));
  EXPECT_TRUE(completions.delivered(2));
  EXPECT_EQ(transport.inflight(), 0);
}

TEST(TcpTransportTest, PacingApproximatesConfiguredRate) {
  EpollLoop loop;
  // 2000 logical bytes per second at 1 sim second per wall second; 300
  // bytes should take ~0.15 s.
  TcpTransport transport(loop, 2, /*time_scale=*/1, uniform_rates(2, 2000));
  Completions completions;
  transport.set_completion(&Completions::on_done, &completions);

  const double start = monotonic_seconds();
  transport.start_transfer(0, 1, 300, 0, -1, 7);
  ASSERT_TRUE(pump_until(loop, [&] { return completions.has(7); }));
  const double elapsed = monotonic_seconds() - start;
  EXPECT_TRUE(completions.delivered(7));
  // Never early; the upper bound is loose (CI scheduling noise).
  EXPECT_GE(elapsed, 0.15);
  EXPECT_LT(elapsed, 2.0);
}

TEST(TcpTransportTest, CancelBeforeReleaseDropsQueuedFrame) {
  EpollLoop loop;
  TcpTransport transport(loop, 2, /*time_scale=*/1, uniform_rates(2, 1000));
  Completions completions;
  transport.set_completion(&Completions::on_done, &completions);

  transport.start_transfer(0, 1, 200, 0, -1, 1);   // ~0.2 s paced
  transport.start_transfer(0, 1, 50000, 0, -1, 2);  // queued behind it
  EXPECT_EQ(transport.inflight(), 2);
  transport.cancel_transfer(2);
  EXPECT_EQ(transport.inflight(), 1);

  ASSERT_TRUE(pump_until(loop, [&] { return completions.has(1); }));
  EXPECT_TRUE(completions.delivered(1));
  // The cancelled transfer never completes in either direction.
  EXPECT_FALSE(completions.has(2));
  EXPECT_EQ(transport.inflight(), 0);
}

TEST(TcpTransportTest, ListenersBindDistinctLoopbackPorts) {
  EpollLoop loop;
  TcpTransport transport(loop, 4, /*time_scale=*/1, uniform_rates(4, 0));
  std::vector<int> ports;
  for (int h = 0; h < 4; ++h) {
    const int port = transport.listen_port(h);
    EXPECT_GT(port, 0);
    for (const int other : ports) EXPECT_NE(port, other);
    ports.push_back(port);
  }
}

}  // namespace
}  // namespace wadc::net::tcp
