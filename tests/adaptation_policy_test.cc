// Unit tests for the adaptation-policy layer: each policy is exercised
// against MockEngineServices — no Engine, no Network, no MonitoringSystem.
#include <gtest/gtest.h>

#include <memory>

#include "core/algorithm_kind.h"
#include "dataflow/adaptation_policy.h"
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

TEST(OrderPolicy, ReplanKeepsCurrentPlanUnderHysteresis) {
  Fixture f;
  EngineParams params;
  // A threshold of 0 can never be undercut: the candidate is always
  // rejected, whatever the cache says.
  params.order_adoption_threshold = 0.0;
  MockEngineServices mock(f.sim, f.tree, params);
  mock.fill_cache_all_pairs(1000.0);
  const auto policy =
      make_adaptation_policy(core::AlgorithmKind::kGlobalOrder);
  ReplanDecision decision;
  f.sim.spawn(run_replan(*policy, mock, decision));
  f.sim.run();
  EXPECT_FALSE(decision.changed);
  EXPECT_EQ(decision.placement, mock.current_placement());
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
