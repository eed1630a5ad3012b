// Unit tests for the adaptation-policy layer: each policy is exercised
// against MockEngineServices — no Engine, no Network, no MonitoringSystem.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/model_constants.h"
#include "core/algorithm_kind.h"
#include "dataflow/adaptation_policy.h"
#include "obs/decision_log.h"
#include "sim/simulation.h"
#include "mock_engine_services.h"

namespace wadc::dataflow {
namespace {

using testing::MockEngineServices;

sim::Task<> run_startup(AdaptationPolicy& policy, EngineServices& services,
                        StartupPlan& out) {
  out = co_await policy.plan_startup(services);
}

sim::Task<> run_replan(AdaptationPolicy& policy, EngineServices& services,
                       ReplanDecision& out) {
  out = co_await policy.replan(services);
}

sim::Task<> run_window(AdaptationPolicy& policy, EngineServices& services,
                       core::OperatorId op) {
  co_await policy.relocation_window(services, op);
}

struct Fixture {
  Fixture() : tree(core::CombinationTree::complete_binary(4)) {}

  sim::Simulation sim;
  core::CombinationTree tree;
};

// ---------------------------------------------------------------------------
// registry

TEST(AdaptationPolicyRegistry, TraitsPerAlgorithm) {
  struct Expect {
    core::AlgorithmKind kind;
    bool directory, barrier, order, window;
  };
  const Expect table[] = {
      {core::AlgorithmKind::kDownloadAll, false, false, false, false},
      {core::AlgorithmKind::kOneShot, false, false, false, false},
      {core::AlgorithmKind::kGlobal, false, true, false, false},
      {core::AlgorithmKind::kLocal, true, false, false, true},
      {core::AlgorithmKind::kGlobalOrder, false, true, true, false},
      {core::AlgorithmKind::kReorderOnly, false, true, true, false},
  };
  for (const Expect& e : table) {
    const auto policy = make_adaptation_policy(e.kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->uses_directory(), e.directory);
    EXPECT_EQ(policy->uses_barrier(), e.barrier);
    EXPECT_EQ(policy->adapts_order(), e.order);
    // Only the local algorithm acts in the per-operator relocation window
    // (§2.3); the engine skips awaiting it for every other policy.
    EXPECT_EQ(policy->acts_in_window(), e.window);
  }
}

// ---------------------------------------------------------------------------
// download-all & one-shot start-up

TEST(DownloadAllPolicy, StartsEverythingAtClient) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  const auto policy =
      make_adaptation_policy(core::AlgorithmKind::kDownloadAll);
  StartupPlan plan;
  f.sim.spawn(run_startup(*policy, mock, plan));
  f.sim.run();
  EXPECT_EQ(plan.placement, core::Placement::all_at_client(f.tree));
  EXPECT_EQ(mock.stats_.plan_rounds, 0);
  EXPECT_EQ(mock.fetch_bandwidth_calls(), 0);
}

TEST(OneShotPolicy, PlansOnceWithFullKnowledge) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  mock.fill_cache_all_pairs(1000.0);
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kOneShot);
  StartupPlan plan;
  f.sim.spawn(run_startup(*policy, mock, plan));
  f.sim.run();
  EXPECT_EQ(mock.stats_.plan_rounds, 1);
  EXPECT_EQ(mock.fetch_bandwidth_calls(), 0);
  EXPECT_EQ(plan.placement.num_operators(), f.tree.num_operators());
}

TEST(OneShotPolicy, ProbesUnknownLinksUpToRoundLimit) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});  // cache left empty
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kOneShot);
  StartupPlan plan;
  f.sim.spawn(run_startup(*policy, mock, plan));
  f.sim.run();
  // The mock's probes never fill the cache, so the planner re-plans until
  // the round limit: one initial round plus one per probe round.
  EXPECT_EQ(mock.stats_.plan_rounds, kMaxPlanProbeRounds + 1);
  EXPECT_GT(mock.fetch_bandwidth_calls(), 0);
}

// ---------------------------------------------------------------------------
// global replanning — the decision that triggers the change-over barrier

TEST(GlobalPolicy, ReplanFlagsChangeAgainstStalePlacement) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  mock.fill_cache_all_pairs(1000.0);
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kGlobal);

  // First replan establishes the planner's optimum for this cache.
  ReplanDecision first;
  f.sim.spawn(run_replan(*policy, mock, first));
  f.sim.run();
  EXPECT_EQ(first.changed,
            !(first.placement == core::Placement::all_at_client(f.tree)));

  // Make the current placement differ from that optimum: the next replan
  // must detect the difference and request a barrier.
  core::Placement stale = first.placement;
  const net::HostId bumped =
      (stale.location(0) + 1) % static_cast<net::HostId>(f.tree.num_hosts());
  stale.set_location(0, bumped);
  mock.set_current_plan(f.tree, stale);

  ReplanDecision second;
  f.sim.spawn(run_replan(*policy, mock, second));
  f.sim.run();
  EXPECT_TRUE(second.changed);
  EXPECT_EQ(second.placement, first.placement);

  // And from the optimum itself, nothing changes: no barrier.
  mock.set_current_plan(f.tree, first.placement);
  ReplanDecision third;
  f.sim.spawn(run_replan(*policy, mock, third));
  f.sim.run();
  EXPECT_FALSE(third.changed);
}

// Order replanning over a crafted cache, to test the adoption threshold
// (0.9): server 0's link to the client runs at `slow_bw`, the other
// servers' at 200 kB/s and every server-to-server link at 500 B/s, so every
// operator stays at the client and only the order matters. The current
// plan is the balanced tree, which puts two compositions on server 0's
// path; the candidate combines server 0 last and saves one.
struct OrderReplan {
  ReplanDecision decision;
  core::CombinationTree current_tree =
      core::CombinationTree::complete_binary(4);
  core::Placement current_placement;
  obs::DecisionLog log;
  // The costs the model gives both plans (§4 constants).
  double current_cost = 0;
  double candidate_cost = 0;

  explicit OrderReplan(double slow_bw) {
    sim::Simulation sim;
    EngineParams params;
    params.obs.decisions = &log;
    MockEngineServices mock(sim, current_tree, params);
    const net::HostId client = current_tree.client_host();
    for (net::HostId a = 1; a < current_tree.num_hosts(); ++a) {
      mock.bandwidth_cache(client).record(client, a, a == 1 ? slow_bw : 200e3,
                                          0);
      for (net::HostId b = a + 1; b < current_tree.num_hosts(); ++b) {
        mock.bandwidth_cache(client).record(a, b, 500, 0);
      }
    }
    current_placement = mock.current_placement();
    const auto policy =
        make_adaptation_policy(core::AlgorithmKind::kGlobalOrder);
    sim.spawn(run_replan(*policy, mock, decision));
    sim.run();

    const double disk = kMeanImageBytes / kDiskBytesPerSecond;
    const double compose = kComputeSecondsPerByte * kMeanImageBytes;
    const double slow_edge = kMessageStartupSeconds + kMeanImageBytes / slow_bw;
    current_cost = disk + slow_edge + 2 * compose;
    candidate_cost = disk + slow_edge + compose;
  }

  double arg(const std::string& key) const {
    for (const obs::TraceArg& a : log.at(0).args) {
      if (a.key == key) return a.double_value;
    }
    ADD_FAILURE() << "no decision arg " << key;
    return 0;
  }
};

TEST(OrderPolicy, ReplanKeepsCurrentPlanUnderHysteresis) {
  // The candidate undercuts the current plan by ~9.5%, less than 10%.
  const OrderReplan r(17000);
  ASSERT_GT(r.candidate_cost, 0.9 * r.current_cost);
  ASSERT_LT(r.candidate_cost, r.current_cost);
  EXPECT_FALSE(r.decision.changed);
  EXPECT_EQ(r.decision.tree.to_string(), r.current_tree.to_string());
  EXPECT_EQ(r.decision.placement, r.current_placement);
  ASSERT_EQ(r.log.size(), 1u);
  EXPECT_STREQ(r.log.at(0).action, "order_reject");
  EXPECT_NEAR(r.arg("candidate_cost"), r.candidate_cost, 1e-9);
  EXPECT_NEAR(r.arg("current_cost"), r.current_cost, 1e-9);
  EXPECT_EQ(r.arg("threshold"), 0.9);
}

TEST(OrderPolicy, ReplanAdoptsPlanPastHysteresis) {
  // The candidate undercuts the current plan by ~10.6%, more than 10%.
  const OrderReplan r(19500);
  ASSERT_LT(r.candidate_cost, 0.9 * r.current_cost);
  EXPECT_TRUE(r.decision.changed);
  // Server 0 (host 1) feeds the root directly, and nothing left the client.
  EXPECT_EQ(r.decision.tree.server_consumer(0), r.decision.tree.root());
  EXPECT_EQ(r.decision.placement,
            core::Placement::all_at_client(r.decision.tree));
  ASSERT_EQ(r.log.size(), 1u);
  EXPECT_STREQ(r.log.at(0).action, "order_adopt");
  EXPECT_NEAR(r.arg("candidate_cost"), r.candidate_cost, 1e-9);
  EXPECT_NEAR(r.arg("current_cost"), r.current_cost, 1e-9);
  EXPECT_EQ(r.arg("threshold"), 0.9);
}

// ---------------------------------------------------------------------------
// local policy — later-producer marking in the relocation window (§2.3)

core::OperatorId op_at_level(const core::CombinationTree& tree, int level) {
  for (core::OperatorId op = 0; op < tree.num_operators(); ++op) {
    if (tree.level(op) == level) return op;
  }
  return core::kNoOperator;
}

TEST(LocalPolicy, MajorityLaterMarksPutOperatorOnCriticalPath) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  mock.fill_cache_all_pairs(1000.0);
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kLocal);
  const core::OperatorId op = op_at_level(f.tree, 0);
  ASSERT_NE(op, core::kNoOperator);

  // Marked later 6 of 10 dispatches, and the consumer is on the critical
  // path: the §2.3 majority rule must conclude we are too.
  CriticalPathState& st = mock.critical_path_state(op);
  st.dispatches = 10;
  st.later_marks = 6;
  st.consumer_on_critical_path = true;

  // At t=0 the epoch index is 0, which selects level-0 operators.
  f.sim.spawn(run_window(*policy, mock, op));
  f.sim.run();
  EXPECT_TRUE(st.on_critical_path);
  EXPECT_EQ(st.later_marks, 0);   // counters reset for the next epoch
  EXPECT_EQ(st.dispatches, 0);
  EXPECT_EQ(st.last_epoch_acted, 0);
}

TEST(LocalPolicy, MinorityLaterMarksStayOffCriticalPath) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  mock.fill_cache_all_pairs(1000.0);
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kLocal);
  const core::OperatorId op = op_at_level(f.tree, 0);
  ASSERT_NE(op, core::kNoOperator);

  CriticalPathState& st = mock.critical_path_state(op);
  st.dispatches = 10;
  st.later_marks = 5;  // exactly half is not a majority
  st.consumer_on_critical_path = true;

  f.sim.spawn(run_window(*policy, mock, op));
  f.sim.run();
  EXPECT_FALSE(st.on_critical_path);
  EXPECT_EQ(st.later_marks, 0);
  EXPECT_EQ(st.dispatches, 0);
  EXPECT_TRUE(mock.relocations().empty());  // off-path operators never move
}

TEST(LocalPolicy, WindowSkipsOperatorsOutsideTheirEpoch) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kLocal);
  // Epoch 0 belongs to level 0; a deeper operator must not act yet.
  const core::OperatorId op = op_at_level(f.tree, 1);
  ASSERT_NE(op, core::kNoOperator);

  CriticalPathState& st = mock.critical_path_state(op);
  st.dispatches = 10;
  st.later_marks = 10;
  st.consumer_on_critical_path = true;

  f.sim.spawn(run_window(*policy, mock, op));
  f.sim.run();
  EXPECT_EQ(st.last_epoch_acted, -1);  // untouched
  EXPECT_EQ(st.dispatches, 10);
  EXPECT_EQ(st.later_marks, 10);
}

TEST(LocalPolicy, WindowActsAtMostOncePerEpoch) {
  Fixture f;
  MockEngineServices mock(f.sim, f.tree, EngineParams{});
  mock.fill_cache_all_pairs(1000.0);
  const auto policy = make_adaptation_policy(core::AlgorithmKind::kLocal);
  const core::OperatorId op = op_at_level(f.tree, 0);
  ASSERT_NE(op, core::kNoOperator);

  CriticalPathState& st = mock.critical_path_state(op);
  st.dispatches = 10;
  st.later_marks = 10;
  st.consumer_on_critical_path = true;
  f.sim.spawn(run_window(*policy, mock, op));
  f.sim.run();
  ASSERT_EQ(st.last_epoch_acted, 0);

  // Same simulated time, same epoch: a second window is a no-op.
  st.dispatches = 7;
  st.later_marks = 7;
  f.sim.spawn(run_window(*policy, mock, op));
  f.sim.run();
  EXPECT_EQ(st.dispatches, 7);
  EXPECT_EQ(st.later_marks, 7);
}

}  // namespace
}  // namespace wadc::dataflow
