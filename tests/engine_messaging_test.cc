// Unit tests for the MessageRouter routing sublayer against
// MockEngineServices — no Engine, no Network: placement-based resolution,
// directory-based resolution with stale-forward chasing, a message to a
// host, the fault-mode give-up path and a failed hop.
#include <gtest/gtest.h>

#include "core/placement.h"
#include "dataflow/engine_messaging.h"
#include "net/types.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "mock_engine_services.h"

namespace wadc::dataflow {
namespace {

using testing::MockEngineServices;

// Drives a chase the way Engine::Route does, with the mock's hops as the
// legs: make the hop the chase names, hand its outcome to advance(), and
// repeat until the way is over.
sim::Task<> run_route(MessageRouter& router, EngineServices& services,
                      net::HostId from, core::OperatorId target,
                      int iteration, double bytes, int priority,
                      net::HostId& out) {
  MessageRouter::Chase chase = router.to_operator(from, target, iteration);
  bool delivered = false;
  do {
    delivered = co_await services.hop(chase.at, chase.next, bytes, priority);
  } while (!router.advance(chase, delivered));
  out = chase.at;
}

struct Fixture {
  Fixture() : tree(core::CombinationTree::complete_binary(4)) {}

  sim::Simulation sim;
  core::CombinationTree tree;
};

// ---------------------------------------------------------------------------
// believed_location resolution

TEST(MessageRouter, PlacementModeResolvesPerIteration) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  core::Placement even = core::Placement::all_at_client(f.tree);
  core::Placement odd = core::Placement::all_at_client(f.tree);
  even.set_location(0, f.tree.server_host(1));
  odd.set_location(0, f.tree.server_host(3));
  MessageRouter router(mock, /*uses_directory=*/false,
                       [&](int iteration) -> const core::Placement& {
                         return iteration % 2 == 0 ? even : odd;
                       });
  // The iteration — not the sender — picks the governing placement.
  EXPECT_EQ(router.believed_location(0, 0, 0), f.tree.server_host(1));
  EXPECT_EQ(router.believed_location(0, 0, 1), f.tree.server_host(3));
  EXPECT_EQ(router.believed_location(2, 0, 2), f.tree.server_host(1));
}

TEST(MessageRouter, DirectoryModeResolvesFromSenderDirectory) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  const core::Placement none = core::Placement::all_at_client(f.tree);
  MessageRouter router(mock, /*uses_directory=*/true,
                       [&](int) -> const core::Placement& { return none; });
  // Only host 2's directory has heard about the move: resolution is the
  // sender's local knowledge, not the global truth.
  mock.directory(2).record_move(0, f.tree.server_host(3));
  EXPECT_EQ(router.believed_location(2, 0, 0), f.tree.server_host(3));
  EXPECT_EQ(router.believed_location(0, 0, 0), f.tree.client_host());
}

// ---------------------------------------------------------------------------
// placement-based routing: single authoritative hop

TEST(MessageRouter, PlacementRouteIsSingleHopAndAuthoritative) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  core::Placement placement = core::Placement::all_at_client(f.tree);
  placement.set_location(1, f.tree.server_host(2));
  MessageRouter router(mock, /*uses_directory=*/false,
                       [&](int) -> const core::Placement& {
                         return placement;
                       });
  // The mock's location table disagrees; placement routing must not chase.
  mock.set_operator_location(1, f.tree.server_host(0));

  net::HostId delivered = net::kInvalidHost;
  f.sim.spawn(run_route(router, mock, f.tree.client_host(), 1,
                        /*iteration=*/0, /*bytes=*/512.0,
                        /*priority=*/7, delivered));
  f.sim.run();

  EXPECT_EQ(delivered, f.tree.server_host(2));
  ASSERT_EQ(mock.hops().size(), 1u);
  EXPECT_EQ(mock.hops()[0].from, f.tree.client_host());
  EXPECT_EQ(mock.hops()[0].to, f.tree.server_host(2));
  EXPECT_EQ(mock.hops()[0].bytes, 512.0);
  EXPECT_EQ(mock.hops()[0].priority, 7);
  EXPECT_EQ(mock.stats_.messages_forwarded, 0);
}

// ---------------------------------------------------------------------------
// directory-based routing: stale entries forward to the truth

TEST(MessageRouter, DirectoryRouteForwardsFromStaleLocation) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  const core::Placement none = core::Placement::all_at_client(f.tree);
  MessageRouter router(mock, /*uses_directory=*/true,
                       [&](int) -> const core::Placement& { return none; });
  obs::Counter forwards;
  router.set_forwards_counter(&forwards);

  // The operator moved to server 1, but the sender's directory still says
  // client: one stale hop, then the old host forwards to the truth.
  mock.set_operator_location(2, f.tree.server_host(1));

  net::HostId delivered = net::kInvalidHost;
  f.sim.spawn(run_route(router, mock, f.tree.server_host(3), 2,
                        /*iteration=*/0, /*bytes=*/64.0,
                        /*priority=*/1, delivered));
  f.sim.run();

  EXPECT_EQ(delivered, f.tree.server_host(1));
  ASSERT_EQ(mock.hops().size(), 2u);
  EXPECT_EQ(mock.hops()[0].from, f.tree.server_host(3));
  EXPECT_EQ(mock.hops()[0].to, f.tree.client_host());
  EXPECT_EQ(mock.hops()[1].from, f.tree.client_host());
  EXPECT_EQ(mock.hops()[1].to, f.tree.server_host(1));
  EXPECT_EQ(mock.stats_.messages_forwarded, 1);
  EXPECT_EQ(forwards.value(), 1.0);
}

TEST(MessageRouter, FreshDirectoryEntryNeedsNoForward) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  const core::Placement none = core::Placement::all_at_client(f.tree);
  MessageRouter router(mock, /*uses_directory=*/true,
                       [&](int) -> const core::Placement& { return none; });
  mock.set_operator_location(2, f.tree.server_host(1));
  mock.directory(f.tree.server_host(3))
      .record_move(2, f.tree.server_host(1));

  net::HostId delivered = net::kInvalidHost;
  f.sim.spawn(run_route(router, mock, f.tree.server_host(3), 2,
                        /*iteration=*/0, /*bytes=*/64.0,
                        /*priority=*/1, delivered));
  f.sim.run();

  EXPECT_EQ(delivered, f.tree.server_host(1));
  EXPECT_EQ(mock.hops().size(), 1u);
  EXPECT_EQ(mock.stats_.messages_forwarded, 0);
}

TEST(MessageRouter, HostMessageArrivesWithItsOneHop) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  const core::Placement none = core::Placement::all_at_client(f.tree);
  MessageRouter router(mock, /*uses_directory=*/true,
                       [&](int) -> const core::Placement& { return none; });
  // A host never moves: no location lookup, no forward, whatever the
  // directories say about operators.
  MessageRouter::Chase chase =
      MessageRouter::to_host(f.tree.server_host(1), f.tree.client_host());
  EXPECT_TRUE(router.advance(chase, /*delivered=*/true));
  EXPECT_EQ(chase.at, f.tree.client_host());

  MessageRouter::Chase lost =
      MessageRouter::to_host(f.tree.server_host(1), f.tree.client_host());
  EXPECT_TRUE(router.advance(lost, /*delivered=*/false));
  EXPECT_EQ(lost.at, net::kInvalidHost);
  EXPECT_EQ(mock.stats_.messages_forwarded, 0);
}

// ---------------------------------------------------------------------------
// fault mode: a message chasing a moving operator eventually gives up

// Overrides the location table with one that returns a different host on
// every call, so the forwarding chase can never catch up — the shape repair
// creates when it relocates an operator repeatedly while a message is in
// flight.
class MovingTargetServices : public MockEngineServices {
 public:
  using MockEngineServices::MockEngineServices;

  net::HostId operator_location(core::OperatorId) const override {
    const int servers = base_tree().num_hosts() - 1;
    return base_tree().server_host((calls_++) % servers);
  }

 private:
  mutable int calls_ = 0;
};

TEST(MessageRouter, FaultModeGivesUpChasingMovingOperator) {
  Fixture f;
  MovingTargetServices mock(f.sim, f.tree, EngineParams{});
  const core::Placement none = core::Placement::all_at_client(f.tree);
  MessageRouter router(mock, /*uses_directory=*/true,
                       [&](int) -> const core::Placement& { return none; });
  mock.set_faults_active(true);

  net::HostId delivered = 0;
  f.sim.spawn(run_route(router, mock, f.tree.client_host(), 0,
                        /*iteration=*/0, /*bytes=*/1.0,
                        /*priority=*/0, delivered));
  f.sim.run();

  EXPECT_EQ(delivered, net::kInvalidHost);
  // One hop to the believed location, then forwards up to the fault-mode
  // bound of 8 + num_hosts before the router gives up.
  EXPECT_EQ(mock.hops().size(),
            static_cast<std::size_t>(1 + 8 + f.tree.num_hosts()));
}

// ---------------------------------------------------------------------------
// transport failure surfaces as kInvalidHost

class FailingHopServices : public MockEngineServices {
 public:
  using MockEngineServices::MockEngineServices;

  sim::Task<bool> hop(net::HostId, net::HostId, double, int) override {
    co_return false;
  }
};

TEST(MessageRouter, FailedHopReturnsInvalidHost) {
  Fixture f;
  FailingHopServices mock(f.sim, f.tree, EngineParams{});
  const core::Placement none = core::Placement::all_at_client(f.tree);
  MessageRouter router(mock, /*uses_directory=*/true,
                       [&](int) -> const core::Placement& { return none; });

  net::HostId delivered = 0;
  f.sim.spawn(run_route(router, mock, f.tree.server_host(1), 0,
                        /*iteration=*/0, /*bytes=*/1.0,
                        /*priority=*/0, delivered));
  f.sim.run();

  EXPECT_EQ(delivered, net::kInvalidHost);
  EXPECT_EQ(mock.stats_.messages_forwarded, 0);
}

}  // namespace
}  // namespace wadc::dataflow
