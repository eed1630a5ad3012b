// Tests for the adaptive-order extension: custom trees, the greedy order
// planner, and the engine running joint order+location adaptation.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/order_planner.h"
#include "exp/experiment.h"
#include "trace/library.h"

namespace wadc::core {
namespace {

MapResolver random_resolver(int hosts, std::uint64_t seed) {
  Rng rng(seed);
  MapResolver r;
  for (net::HostId a = 0; a < hosts; ++a) {
    for (net::HostId b = a + 1; b < hosts; ++b) {
      r.set(a, b, rng.uniform(1e3, 300e3));
    }
  }
  return r;
}

// ---- CombinationTree::custom ----------------------------------------------

TEST(CustomTree, BuildsFromExplicitMergeOrder) {
  // (s0, s2) then ((s0 s2), s1): a shape neither builder produces.
  const auto t = CombinationTree::custom(
      3, {{Child::server(0), Child::server(2)},
          {Child::op(0), Child::server(1)}});
  EXPECT_EQ(t.shape(), TreeShape::kCustom);
  EXPECT_EQ(t.num_operators(), 2);
  EXPECT_EQ(t.root(), 1);
  EXPECT_EQ(t.server_consumer(0), 0);
  EXPECT_EQ(t.server_consumer(2), 0);
  EXPECT_EQ(t.server_consumer(1), 1);
  EXPECT_EQ(t.parent(0), 1);
}

TEST(CustomTreeDeath, RejectsReusedServer) {
  EXPECT_DEATH(CombinationTree::custom(
                   3, {{Child::server(0), Child::server(0)},
                       {Child::op(0), Child::server(1)}}),
               "consumed exactly once");
}

TEST(CustomTreeDeath, RejectsForwardOperatorReference) {
  EXPECT_DEATH(CombinationTree::custom(
                   3, {{Child::server(0), Child::op(1)},
                       {Child::op(0), Child::server(1)}}),
               "precede");
}

TEST(CustomTreeDeath, RejectsWrongOperatorCount) {
  EXPECT_DEATH(
      CombinationTree::custom(3, {{Child::server(0), Child::server(1)}}),
      "needs");
}

// ---- OrderPlanner ----------------------------------------------------------

TEST(OrderPlanner, ProducesAValidTree) {
  Rng rng(5);
  for (const int servers : {2, 3, 4, 8, 13}) {
    const OrderPlanner planner(servers);
    auto resolver = random_resolver(servers + 1, rng.next_u64());
    const auto outcome = planner.plan(resolver);
    EXPECT_EQ(outcome.tree.num_servers(), servers);
    EXPECT_EQ(outcome.tree.num_operators(), servers - 1);
    EXPECT_EQ(outcome.placement.num_operators(), servers - 1);
    EXPECT_GT(outcome.cost, 0);
    for (OperatorId op = 0; op < servers - 1; ++op) {
      EXPECT_GE(outcome.placement.location(op), 0);
      EXPECT_LT(outcome.placement.location(op), servers + 1);
    }
  }
}

TEST(OrderPlanner, CostMatchesItsOwnTreeAndPlacement) {
  const OrderPlanner planner(8);
  auto resolver = random_resolver(9, 11);
  const auto outcome = planner.plan(resolver);
  const CostModel model(outcome.tree, CostModelParams{});
  EXPECT_NEAR(model.placement_cost(outcome.placement, resolver),
              outcome.cost, 1e-9);
}

TEST(OrderPlanner, AtLeastAsGoodAsOneShotOnFixedBinaryTree) {
  // The order planner refines with one-shot, so with full knowledge its
  // plan should not lose to the fixed-binary one-shot plan by much; over
  // random bandwidth draws it usually wins.
  Rng rng(17);
  int wins = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    auto resolver = random_resolver(9, rng.next_u64());
    const OrderPlanner planner(8);
    const auto ordered = planner.plan(resolver);

    const auto binary_tree = CombinationTree::complete_binary(8);
    const CostModel binary_model(binary_tree, CostModelParams{});
    const OneShotPlanner one_shot(binary_model);
    const auto fixed = one_shot.plan_from_scratch(resolver);

    if (ordered.cost <= fixed.cost + 1e-9) ++wins;
  }
  EXPECT_GE(wins, trials / 2) << "order planning loses too often";
}

TEST(OrderPlanner, PairsServersAcrossTheirFastLink) {
  // Servers 1&2 share a fast link and fast access to the client via host 1;
  // everything else is slow. The planner should combine them first.
  MapResolver r;
  const int hosts = 5;
  for (net::HostId a = 0; a < hosts; ++a) {
    for (net::HostId b = a + 1; b < hosts; ++b) r.set(a, b, 2e3);
  }
  r.set(1, 2, 300e3);
  r.set(0, 1, 300e3);
  const OrderPlanner planner(4);
  const auto outcome = planner.plan(r);
  // Some operator combines exactly servers 0 and 1 (hosts 1 and 2).
  bool found = false;
  for (OperatorId op = 0; op < outcome.tree.num_operators(); ++op) {
    const Child& l = outcome.tree.left_child(op);
    const Child& rr = outcome.tree.right_child(op);
    if (l.is_server() && rr.is_server() &&
        ((l.index == 0 && rr.index == 1) ||
         (l.index == 1 && rr.index == 0))) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(OrderPlanner, FixAtClientPlacesEverythingAtTheClient) {
  auto resolver = random_resolver(9, 41);
  OrderPlannerOptions options;
  options.fix_at_client = true;
  const OrderPlanner planner(8, OneShotParams{}, options);
  const auto outcome = planner.plan(resolver);
  for (OperatorId op = 0; op < outcome.tree.num_operators(); ++op) {
    EXPECT_EQ(outcome.placement.location(op), 0);
  }
}

TEST(OrderPlanner, ReportsUnknownPairs) {
  MapResolver empty;
  const OrderPlanner planner(4);
  const auto outcome = planner.plan(empty);
  EXPECT_FALSE(outcome.unknown_pairs.empty());
}

}  // namespace
}  // namespace wadc::core

// ---- engine integration ------------------------------------------------------

namespace wadc::dataflow {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

TEST(GlobalOrder, CompletesWithVerifiedLineageAcrossTreeSwitches) {
  exp::ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kGlobalOrder;
  spec.num_servers = 8;
  spec.iterations = 100;
  spec.relocation_period_seconds = 150;
  spec.config_seed = 901;
  const auto r = exp::run_experiment(shared_library(), spec);
  // The engine verifies every delivered image's lineage, so completing
  // means each was right even as the combination tree changed mid-run.
  EXPECT_TRUE(r.stats.completed);
  EXPECT_EQ(r.stats.arrival_seconds.size(), 100u);
  EXPECT_EQ(r.stats.barriers_initiated, r.stats.barriers_completed);
}

TEST(GlobalOrder, IsDeterministic) {
  exp::ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kGlobalOrder;
  spec.num_servers = 6;
  spec.iterations = 60;
  spec.relocation_period_seconds = 200;
  spec.config_seed = 903;
  const auto a = exp::run_experiment(shared_library(), spec);
  const auto b = exp::run_experiment(shared_library(), spec);
  EXPECT_EQ(a.completion_seconds, b.completion_seconds);
  EXPECT_EQ(a.stats.relocations, b.stats.relocations);
}

TEST(GlobalOrder, RunsOnManyConfigs) {
  for (std::uint64_t seed = 910; seed < 918; ++seed) {
    exp::ExperimentSpec spec;
    spec.algorithm = core::AlgorithmKind::kGlobalOrder;
    spec.num_servers = 6;
    spec.iterations = 40;
    spec.relocation_period_seconds = 150;
    spec.config_seed = seed;
    EXPECT_TRUE(exp::run_experiment(shared_library(), spec).stats.completed)
        << "seed " << seed;
  }
}

TEST(ReorderOnly, KeepsEveryOperatorAtTheClient) {
  exp::ExperimentSpec spec;
  spec.algorithm = core::AlgorithmKind::kReorderOnly;
  spec.num_servers = 6;
  spec.iterations = 50;
  spec.relocation_period_seconds = 150;
  spec.config_seed = 921;
  const auto r = exp::run_experiment(shared_library(), spec);
  EXPECT_TRUE(r.stats.completed);
  // Reordering never physically moves an operator off the client.
  EXPECT_EQ(r.stats.relocations, 0);
}

TEST(ReorderOnly, IsInherentlyLimited) {
  // §1: "The effectiveness of changing just the order of the operators is,
  // however, inherently limited as it is not able to reposition operators
  // in response to persistent or long-term changes in bandwidth." With all
  // operators at the client, every byte still crosses the same client
  // links, so reordering stays within a few percent of download-all.
  for (const std::uint64_t seed : {931ull, 932ull, 933ull, 934ull}) {
    exp::ExperimentSpec spec;
    spec.num_servers = 8;
    spec.iterations = 40;
    spec.config_seed = seed;
    spec.algorithm = core::AlgorithmKind::kDownloadAll;
    const double base =
        exp::run_experiment(shared_library(), spec).completion_seconds;
    spec.algorithm = core::AlgorithmKind::kReorderOnly;
    const double reorder =
        exp::run_experiment(shared_library(), spec).completion_seconds;
    const double speedup = base / reorder;
    EXPECT_GT(speedup, 0.85) << "seed " << seed;
    EXPECT_LT(speedup, 1.25) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wadc::dataflow
