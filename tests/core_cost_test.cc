// Unit and property tests for the cost model and the branch-and-bound
// critical path.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/bandwidth_resolver.h"
#include "core/cost_model.h"

namespace wadc::core {
namespace {

// Fills a resolver with random bandwidths strictly above the pessimistic
// bound (the generator's floor guarantees this in real runs; it is also the
// condition for branch-and-bound pruning to be exact).
MapResolver random_resolver(int hosts, std::uint64_t seed, double lo = 1e3,
                            double hi = 400e3) {
  Rng rng(seed);
  MapResolver r;
  for (net::HostId a = 0; a < hosts; ++a) {
    for (net::HostId b = a + 1; b < hosts; ++b) {
      r.set(a, b, rng.uniform(lo, hi));
    }
  }
  return r;
}

// Reference implementation: plain recursive longest path, no pruning.
double brute_force_cost(const CombinationTree& tree, const CostModel& model,
                        const Placement& p, BandwidthResolver& r,
                        const Child& c) {
  if (c.is_server()) return model.disk_cost();
  const OperatorId op = c.index;
  const net::HostId here = p.location(op);
  double best = 0;
  for (const Child& child : {tree.left_child(op), tree.right_child(op)}) {
    const net::HostId ch = p.child_host(tree, child);
    double edge = 0;
    if (ch != here) edge = model.edge_cost(ch, here, r, nullptr);
    best = std::max(best,
                    brute_force_cost(tree, model, p, r, child) + edge);
  }
  return best + model.compute_cost();
}

double brute_force_placement_cost(const CombinationTree& tree,
                                  const CostModel& model, const Placement& p,
                                  BandwidthResolver& r) {
  double cost = brute_force_cost(tree, model, p, r, Child::op(tree.root()));
  const net::HostId root_host = p.location(tree.root());
  if (root_host != tree.client_host()) {
    cost += model.edge_cost(root_host, tree.client_host(), r, nullptr);
  }
  return cost;
}

TEST(CostModel, EdgeCostFormula) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;
  r.set(0, 1, 1000.0);
  EXPECT_DOUBLE_EQ(model.edge_cost(0, 1, r, nullptr),
                   0.05 + 128 * 1024 / 1000.0);
  EXPECT_DOUBLE_EQ(model.edge_cost(1, 1, r, nullptr), 0.0);  // co-located
}

TEST(CostModel, UnknownEdgeUsesPessimisticAndRecordsPair) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;  // empty
  std::set<HostPair> unknown;
  const double cost = model.edge_cost(1, 2, r, &unknown);
  EXPECT_DOUBLE_EQ(cost, 0.05 + 128 * 1024 / 400.0);
  EXPECT_EQ(unknown.count({1, 2}), 1u);
}

TEST(CostModel, ComputeAndDiskCosts) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  EXPECT_DOUBLE_EQ(model.compute_cost(), 7e-6 * 128 * 1024);
  EXPECT_DOUBLE_EQ(model.disk_cost(), 128.0 * 1024 / 3e6);
}

TEST(CriticalPath, AllAtClientHandComputed) {
  // Two servers, one operator at the client. Critical path goes through the
  // slower server link.
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;
  r.set(0, 1, 10e3);  // server host 1 -> client
  r.set(0, 2, 5e3);   // server host 2 -> client (slower)
  r.set(1, 2, 50e3);
  const auto p = Placement::all_at_client(tree);
  const auto cp = model.critical_path(p, r);
  const double expected =
      model.disk_cost() + (0.05 + 128 * 1024 / 5e3) + model.compute_cost();
  EXPECT_DOUBLE_EQ(cp.cost, expected);
  EXPECT_EQ(cp.critical_server, 1);  // server index 1 = host 2
  ASSERT_EQ(cp.path.size(), 1u);
  EXPECT_EQ(cp.path[0], tree.root());
}

TEST(CriticalPath, PathListsOperatorsRootDown) {
  const auto tree = CombinationTree::complete_binary(8);
  const CostModel model(tree, CostModelParams{});
  auto r = random_resolver(tree.num_hosts(), 3);
  const auto p = Placement::all_at_client(tree);
  const auto cp = model.critical_path(p, r);
  ASSERT_FALSE(cp.path.empty());
  EXPECT_EQ(cp.path.front(), tree.root());
  // Consecutive entries are parent->child.
  for (std::size_t i = 1; i < cp.path.size(); ++i) {
    EXPECT_EQ(tree.parent(cp.path[i]), cp.path[i - 1]);
  }
  // The critical server's consumer is the last path operator.
  EXPECT_EQ(tree.server_consumer(cp.critical_server), cp.path.back());
}

TEST(CriticalPath, CoLocatedSubtreePrunes) {
  // One subtree entirely co-located with fast edges elsewhere: the pruning
  // counter should be non-zero and no bandwidth should be needed for edges
  // inside a co-located chain.
  const auto tree = CombinationTree::complete_binary(4);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;
  // op0=(s0,s1) at client; op1=(s2,s3) at host 3; root at client.
  auto p = Placement::all_at_client(tree);
  p.set_location(1, 3);
  r.set(0, 1, 100e3);
  r.set(0, 2, 100e3);
  r.set(1, 3, 2e3);  // slow input edge to op1
  r.set(3, 4, 100e3);
  r.set(0, 3, 100e3);  // op1 -> root
  const auto cp = model.critical_path(p, r);
  EXPECT_GT(cp.cost, 0);
  EXPECT_TRUE(cp.unknown_pairs.empty());
}

class CriticalPathPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CriticalPathPropertyTest, MatchesBruteForceOnRandomPlacements) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (const int servers : {2, 3, 4, 8, 13}) {
    for (const auto shape :
         {TreeShape::kCompleteBinary, TreeShape::kLeftDeep}) {
      const auto tree = CombinationTree::make(shape, servers);
      const CostModel model(tree, CostModelParams{});
      auto r = random_resolver(tree.num_hosts(),
                               rng.next_u64());
      for (int trial = 0; trial < 10; ++trial) {
        Placement p = Placement::all_at_client(tree);
        for (OperatorId op = 0; op < tree.num_operators(); ++op) {
          p.set_location(op,
                         static_cast<net::HostId>(rng.next_below(
                             static_cast<std::uint64_t>(tree.num_hosts()))));
        }
        const auto cp = model.critical_path(p, r);
        const double expected =
            brute_force_placement_cost(tree, model, p, r);
        EXPECT_NEAR(cp.cost, expected, 1e-9)
            << tree.to_string() << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalPathPropertyTest,
                         ::testing::Range(1, 9));

TEST(CriticalPath, ReportedPathCostIsConsistent) {
  // Recompute the cost along the returned path by hand; it must equal the
  // reported critical-path cost.
  Rng rng(77);
  const auto tree = CombinationTree::complete_binary(8);
  const CostModel model(tree, CostModelParams{});
  auto r = random_resolver(tree.num_hosts(), 5);
  Placement p = Placement::all_at_client(tree);
  for (OperatorId op = 0; op < tree.num_operators(); ++op) {
    p.set_location(op, static_cast<net::HostId>(rng.next_below(9)));
  }
  const auto cp = model.critical_path(p, r);

  // Walk from the critical server up to the client.
  double cost = model.disk_cost();
  net::HostId prev = tree.server_host(cp.critical_server);
  for (auto it = cp.path.rbegin(); it != cp.path.rend(); ++it) {
    const net::HostId here = p.location(*it);
    if (prev != here) cost += model.edge_cost(prev, here, r, nullptr);
    cost += model.compute_cost();
    prev = here;
  }
  if (prev != tree.client_host()) {
    cost += model.edge_cost(prev, tree.client_host(), r, nullptr);
  }
  EXPECT_NEAR(cp.cost, cost, 1e-9);
}

TEST(CriticalPath, UnknownPairsReportedForSparseResolver) {
  const auto tree = CombinationTree::complete_binary(4);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;  // knows nothing
  auto p = Placement::all_at_client(tree);
  p.set_location(0, 1);
  const auto cp = model.critical_path(p, r);
  EXPECT_FALSE(cp.unknown_pairs.empty());
  // All unknown pairs involve hosts that placement actually connects.
  for (const auto& [a, b] : cp.unknown_pairs) {
    EXPECT_LT(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(b, tree.num_hosts());
  }
}

TEST(CriticalPath, PruningStatisticsExposed) {
  // With every operator at the client, sibling subtrees tie; at least the
  // resolver usage must stay bounded and stats must be populated.
  const auto tree = CombinationTree::complete_binary(16);
  const CostModel model(tree, CostModelParams{});
  auto r = random_resolver(tree.num_hosts(), 11);
  const auto cp =
      model.critical_path(Placement::all_at_client(tree), r);
  EXPECT_GT(cp.edges_resolved, 0u);
  EXPECT_GE(cp.subtrees_pruned, 0u);
}

}  // namespace
}  // namespace wadc::core
