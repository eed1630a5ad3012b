// Unit tests for net::ReliableChannel's send: the delivery hook, local
// sends, the retry schedule under a deadline policy, per-attempt payload
// rebuilds and cancellation.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/link_table.h"
#include "net/network.h"
#include "net/reliable_transfer.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"

namespace wadc::net {
namespace {

// The message a send carries, with counters the cases check. build()
// returns the next entry of `sizes` (the last one repeats).
struct Message {
  std::vector<double> sizes{1000.0};
  int builds = 0;
  int deliveries = 0;
  bool cancel = false;

  double build() {
    const std::size_t i = static_cast<std::size_t>(builds++);
    return i < sizes.size() ? sizes[i] : sizes.back();
  }
};

sim::Task<> send(ReliableChannel& channel, HostId from, HostId to,
                 Message& message, std::optional<bool>& result) {
  result = co_await channel.send(
      from, to, kDataPriority,
      {[](void* m) { return static_cast<Message*>(m)->build(); },
       [](void* m) { ++static_cast<Message*>(m)->deliveries; },
       [](void* m) { return static_cast<Message*>(m)->cancel; }, &message});
}

struct Retry {
  int attempt;
  double backoff;
  sim::SimTime at;
};

class ReliableChannelTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kJitterSeed = 77;

  ReliableChannelTest() : trace_(10.0, {1000.0}), links_(2) {
    links_.set_link(0, 1, &trace_);
  }

  // A deadline policy: 10 s per attempt, five retries, 2 s base backoff.
  static RetryPolicy deadline_policy() {
    RetryPolicy policy;
    policy.timeout_base_seconds = 10;
    policy.max_retries = 5;
    policy.backoff_base_seconds = 2;
    policy.backoff_max_seconds = 60;
    return policy;
  }

  void listen(ReliableChannel& channel) {
    channel.set_retry_listener(
        {[](void* ctx, HostId, HostId, int attempt, double backoff) {
           auto* self = static_cast<ReliableChannelTest*>(ctx);
           self->retries_.push_back(
               Retry{attempt, backoff, self->sim_.now()});
         },
         this});
  }

  // Records the size of every resolved transfer, in order.
  void observe_sizes(Network& network) {
    network.add_observer(
        {[](void* ctx, const TransferRecord& record) {
           static_cast<std::vector<double>*>(ctx)->push_back(record.bytes);
         },
         &sizes_});
  }

  trace::BandwidthTrace trace_;
  LinkTable links_;
  sim::Simulation sim_;
  std::vector<Retry> retries_;
  std::vector<double> sizes_;
};

TEST_F(ReliableChannelTest, DeliveredSendCallsTheHookOnceAndYieldsTrue) {
  Network network(sim_, links_);
  ReliableChannel channel(network, RetryPolicy{}, Rng(kJitterSeed));
  listen(channel);
  Message message;
  std::optional<bool> result;
  sim_.spawn(send(channel, 0, 1, message, result));
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_EQ(message.builds, 1);
  EXPECT_EQ(message.deliveries, 1);
  EXPECT_TRUE(retries_.empty());
  // 50 ms startup plus 1000 bytes at 1000 B/s.
  EXPECT_DOUBLE_EQ(sim_.now(), 1.05);
  EXPECT_EQ(network.transfers_completed(), 1u);
}

TEST_F(ReliableChannelTest, LocalSendCompletesWithoutAnEvent) {
  Network network(sim_, links_);
  ReliableChannel channel(network, deadline_policy(), Rng(kJitterSeed));
  Message message;
  std::optional<bool> result;
  sim_.spawn(send(channel, 1, 1, message, result));
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_EQ(message.deliveries, 1);
  // The spawn's own start event is the only one the run dispatched.
  EXPECT_EQ(sim_.events_processed(), 1u);
  EXPECT_EQ(sim_.now(), 0.0);
  EXPECT_EQ(network.transfers_completed(), 0u);
}

TEST_F(ReliableChannelTest, DeadHostExhaustsRetriesOnTheJitterSchedule) {
  Network network(sim_, links_);
  const RetryPolicy policy = deadline_policy();
  ReliableChannel channel(network, policy, Rng(kJitterSeed));
  listen(channel);
  network.set_host_alive(1, false);
  Message message;
  std::optional<bool> result;
  sim_.spawn(send(channel, 0, 1, message, result));
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(*result);
  EXPECT_EQ(message.builds, policy.max_retries + 1);
  EXPECT_EQ(message.deliveries, 0);
  EXPECT_EQ(network.transfers_timed_out(),
            static_cast<std::uint64_t>(policy.max_retries + 1));

  // The same seed draws the same backoffs; each retry follows a timed-out
  // attempt, and the send gives up when the last attempt times out.
  ReliableChannel reference(network, policy, Rng(kJitterSeed));
  ASSERT_EQ(retries_.size(), static_cast<std::size_t>(policy.max_retries));
  sim::SimTime t = 0;
  for (int i = 0; i < policy.max_retries; ++i) {
    const Retry& r = retries_[static_cast<std::size_t>(i)];
    t += policy.timeout_base_seconds;
    EXPECT_EQ(r.attempt, i);
    EXPECT_DOUBLE_EQ(r.backoff, reference.retry_backoff(i));
    EXPECT_DOUBLE_EQ(r.at, t);
    t += r.backoff;
  }
  t += policy.timeout_base_seconds;
  EXPECT_DOUBLE_EQ(sim_.now(), t);
}

TEST_F(ReliableChannelTest, BuildsTheBytesBeforeEveryAttempt) {
  Network network(sim_, links_);
  ReliableChannel channel(network, deadline_policy(), Rng(kJitterSeed));
  observe_sizes(network);
  network.set_host_alive(1, false);
  // Revive the host during the second backoff: the third attempt delivers.
  sim_.schedule_at(22.5, [&] { network.set_host_alive(1, true); });
  Message message;
  message.sizes = {100.0, 200.0, 300.0};
  std::optional<bool> result;
  sim_.spawn(send(channel, 0, 1, message, result));
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(*result);
  EXPECT_EQ(message.builds, 3);
  EXPECT_EQ(message.deliveries, 1);
  EXPECT_EQ(sizes_, (std::vector<double>{100.0, 200.0, 300.0}));
}

TEST_F(ReliableChannelTest, CancelledSendGivesUpWithoutBackingOff) {
  Network network(sim_, links_);
  ReliableChannel channel(network, deadline_policy(), Rng(kJitterSeed));
  listen(channel);
  network.set_host_alive(1, false);
  Message message;
  message.cancel = true;
  std::optional<bool> result;
  sim_.spawn(send(channel, 0, 1, message, result));
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(*result);
  EXPECT_EQ(message.builds, 1);
  EXPECT_TRUE(retries_.empty());
  EXPECT_DOUBLE_EQ(sim_.now(), deadline_policy().timeout_base_seconds);
}

}  // namespace
}  // namespace wadc::net
