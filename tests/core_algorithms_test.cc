// Unit and property tests for the placement algorithms: one-shot search and
// the local relocation rule.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/bandwidth_resolver.h"
#include "core/cost_model.h"
#include "core/local_rule.h"
#include "core/one_shot.h"

namespace wadc::core {
namespace {

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

// Exhaustive minimum placement cost for small trees.
double exhaustive_best(const CombinationTree& tree, const CostModel& model,
                       BandwidthResolver& r) {
  const int hosts = tree.num_hosts();
  const int ops = tree.num_operators();
  double best = -1;
  std::vector<net::HostId> loc(static_cast<std::size_t>(ops), 0);
  for (;;) {
    const Placement p{std::vector<net::HostId>(loc)};
    const double cost = model.placement_cost(p, r);
    if (best < 0 || cost < best) best = cost;
    // Odometer increment.
    int i = 0;
    while (i < ops) {
      if (++loc[static_cast<std::size_t>(i)] < hosts) break;
      loc[static_cast<std::size_t>(i)] = 0;
      ++i;
    }
    if (i == ops) break;
  }
  return best;
}

TEST(OneShot, KeepsAllAtClientWhenClientLinksAreBest) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;
  r.set(0, 1, 300e3);  // excellent client links
  r.set(0, 2, 300e3);
  r.set(1, 2, 1e3);    // terrible lateral link
  const OneShotPlanner planner(model);
  const auto outcome = planner.plan_from_scratch(r);
  EXPECT_EQ(outcome.placement, Placement::all_at_client(tree));
  EXPECT_EQ(outcome.iterations, 0);
}

TEST(OneShot, ReroutesAroundASlowClientLink) {
  // Server host 2 has an awful link to the client but a fast link to host 1
  // whose client link is fast: the operator should move to host 1.
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;
  r.set(0, 1, 200e3);
  r.set(0, 2, 1e3);    // slow: 128KB would take ~131 s
  r.set(1, 2, 200e3);  // fast detour
  const OneShotPlanner planner(model);
  const auto outcome = planner.plan_from_scratch(r);
  EXPECT_EQ(outcome.placement.location(0), 1);
  EXPECT_GT(outcome.iterations, 0);
  // And the cost actually dropped versus download-all.
  const double base =
      model.placement_cost(Placement::all_at_client(tree), r);
  EXPECT_LT(outcome.cost, base);
}

TEST(OneShot, NeverWorseThanInitialPlacement) {
  Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    const int servers = 2 + static_cast<int>(rng.next_below(7));
    const auto tree = CombinationTree::complete_binary(servers);
    const CostModel model(tree, CostModelParams{});
    auto r = random_resolver(tree.num_hosts(), rng.next_u64());
    Placement initial = Placement::all_at_client(tree);
    for (OperatorId op = 0; op < tree.num_operators(); ++op) {
      initial.set_location(op, static_cast<net::HostId>(rng.next_below(
                                   static_cast<std::uint64_t>(
                                       tree.num_hosts()))));
    }
    const double initial_cost = model.placement_cost(initial, r);
    const OneShotPlanner planner(model);
    const auto outcome = planner.plan(r, initial);
    EXPECT_LE(outcome.cost, initial_cost + 1e-9);
    // Reported cost matches the returned placement.
    EXPECT_NEAR(model.placement_cost(outcome.placement, r), outcome.cost,
                1e-9);
  }
}

TEST(OneShot, IsIdempotentAtConvergence) {
  const auto tree = CombinationTree::complete_binary(8);
  const CostModel model(tree, CostModelParams{});
  auto r = random_resolver(tree.num_hosts(), 99);
  const OneShotPlanner planner(model);
  const auto first = planner.plan_from_scratch(r);
  const auto second = planner.plan(r, first.placement);
  EXPECT_EQ(second.placement, first.placement);
  EXPECT_EQ(second.iterations, 0);
  EXPECT_NEAR(second.cost, first.cost, 1e-12);
}

class OneShotQualityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneShotQualityTest, CloseToExhaustiveOptimumOnSmallTrees) {
  // 2 servers, 3 hosts: 3 placements of 1 operator; 3 servers, 4 hosts:
  // 16 placements of 2 operators. The heuristic should be within 1.5x of
  // optimal (it is usually optimal).
  Rng rng(GetParam());
  for (const int servers : {2, 3}) {
    const auto tree = CombinationTree::complete_binary(servers);
    const CostModel model(tree, CostModelParams{});
    auto r = random_resolver(tree.num_hosts(), rng.next_u64(), 1e3, 300e3);
    const OneShotPlanner planner(model);
    const auto outcome = planner.plan_from_scratch(r);
    const double best = exhaustive_best(tree, model, r);
    EXPECT_LE(outcome.cost, 1.5 * best + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneShotQualityTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(OneShot, ReportsUnknownPairsFromSparseResolver) {
  const auto tree = CombinationTree::complete_binary(4);
  const CostModel model(tree, CostModelParams{});
  MapResolver r;  // nothing known
  const OneShotPlanner planner(model);
  const auto outcome = planner.plan_from_scratch(r);
  EXPECT_FALSE(outcome.unknown_pairs.empty());
}

TEST(OneShot, EvaluatesCandidatesOnTheCriticalPathOnly) {
  const auto tree = CombinationTree::complete_binary(8);
  const CostModel model(tree, CostModelParams{});
  auto r = random_resolver(tree.num_hosts(), 21);
  const OneShotPlanner planner(model);
  const auto outcome = planner.plan_from_scratch(r);
  // Per iteration at most |path| * (hosts-1) candidates; path <= depth+?
  // (4 operators on an 8-server path) and hosts = 9.
  const std::uint64_t per_iter = 4ull * 8ull;
  EXPECT_LE(outcome.candidates_evaluated,
            per_iter * static_cast<std::uint64_t>(outcome.iterations + 1));
}

// ---- LocalRule ---------------------------------------------------------------

TEST(LocalRule, LocalCostFormula) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  const LocalRule rule(model);
  MapResolver r;
  r.set(1, 3, 10e3);
  r.set(2, 3, 5e3);
  r.set(3, 0, 20e3);
  std::set<HostPair> unknown;
  const double cost = rule.local_cost(3, 1, 2, 0, r, &unknown);
  const double in_slow = 0.05 + 128 * 1024 / 5e3;
  const double out = 0.05 + 128 * 1024 / 20e3;
  EXPECT_DOUBLE_EQ(cost, in_slow + model.compute_cost() + out);
  EXPECT_TRUE(unknown.empty());
}

TEST(LocalRule, MovesToAvoidTheSlowLinkEntirely) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  const LocalRule rule(model);
  MapResolver r;
  // Operator at client (0); producers at 1 and 2; consumer at 0.
  // Link 0-1 is horrible; 1-2 and 0-2 are fast. Running at host 2 routes
  // producer 1's data over 1-2 and the output over 2-0, avoiding 0-1.
  r.set(0, 1, 1e3);
  r.set(0, 2, 100e3);
  r.set(1, 2, 100e3);
  const auto d = rule.choose(/*current=*/0, /*p0=*/1, /*p1=*/2,
                             /*consumer=*/0, {}, r);
  EXPECT_TRUE(d.moved);
  EXPECT_EQ(d.chosen, 2);
  // And the chosen local cost is dramatically lower than staying put.
  EXPECT_LT(d.local_cost, 0.1 * rule.local_cost(0, 1, 2, 0, r, nullptr));
}

TEST(LocalRule, CurrentSiteWinsTies) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  const LocalRule rule(model);
  MapResolver r;
  const double bw = 50e3;
  r.set(0, 1, bw);
  r.set(0, 2, bw);
  r.set(1, 2, bw);
  const auto d = rule.choose(0, 1, 2, 0, {}, r);
  EXPECT_FALSE(d.moved);
  EXPECT_EQ(d.chosen, 0);
}

TEST(LocalRule, ExtraCandidatesAreConsidered) {
  const auto tree = CombinationTree::complete_binary(4);
  const CostModel model(tree, CostModelParams{});
  const LocalRule rule(model);
  MapResolver r;
  // Hosts 0..4; operator at 0 with producers 1, 2, consumer 0. Host 3 has
  // spectacular links everywhere.
  for (net::HostId h = 1; h <= 4; ++h) r.set(0, h, 5e3);
  r.set(1, 2, 5e3);
  r.set(1, 3, 500e3);
  r.set(2, 3, 500e3);
  r.set(0, 3, 500e3);
  r.set(1, 4, 5e3);
  r.set(2, 4, 5e3);
  r.set(3, 4, 5e3);
  const auto without = rule.choose(0, 1, 2, 0, {}, r);
  const auto with = rule.choose(0, 1, 2, 0, {3}, r);
  EXPECT_NE(with.chosen, without.chosen);
  EXPECT_EQ(with.chosen, 3);
  EXPECT_LT(with.local_cost, without.local_cost);
}

TEST(LocalRule, RecordsUnknownPairs) {
  const auto tree = CombinationTree::complete_binary(2);
  const CostModel model(tree, CostModelParams{});
  const LocalRule rule(model);
  MapResolver r;  // knows nothing
  const auto d = rule.choose(0, 1, 2, 0, {}, r);
  EXPECT_FALSE(d.unknown_pairs.empty());
}

TEST(LocalRule, ChoiceMinimizesLocalCostOverCandidates) {
  Rng rng(5150);
  const auto tree = CombinationTree::complete_binary(8);
  const CostModel model(tree, CostModelParams{});
  const LocalRule rule(model);
  for (int trial = 0; trial < 20; ++trial) {
    auto r = random_resolver(9, rng.next_u64());
    const auto self = static_cast<net::HostId>(rng.next_below(9));
    const auto p0 = static_cast<net::HostId>(rng.next_below(9));
    const auto p1 = static_cast<net::HostId>(rng.next_below(9));
    const auto consumer = static_cast<net::HostId>(rng.next_below(9));
    const std::vector<net::HostId> extras = {
        static_cast<net::HostId>(rng.next_below(9))};
    const auto d = rule.choose(self, p0, p1, consumer, extras, r);
    for (const net::HostId cand : {self, p0, p1, consumer, extras[0]}) {
      EXPECT_LE(d.local_cost,
                rule.local_cost(cand, p0, p1, consumer, r, nullptr) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace wadc::core
