// Differential tests for the branch-and-bound walk and the one-shot search.
//
// The reference below is the search as it was first written: every
// critical-path evaluation recomputes its upper bounds recursively at each
// level and asks the resolver about every edge it costs, and every candidate
// move is costed on its own copy of the placement, its unknown pairs merged
// into the outcome set by set. CostModel::critical_path and
// OneShotPlanner::plan must agree with it exactly — bit-identical costs,
// the same placements, counters and unknown pairs, and the same set of
// pairs put to the resolver — over random trees, resolvers and placements.
// CostModel::move_cost, which costs one move along the moved operator's
// chain, must agree in the same way with a full walk of the moved
// placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/model_constants.h"
#include "common/rng.h"
#include "core/bandwidth_resolver.h"
#include "core/cost_model.h"
#include "core/one_shot.h"

namespace wadc::core {
namespace {

// ---- reference search -------------------------------------------------------

class ReferenceSearch {
 public:
  explicit ReferenceSearch(const CostModel& model)
      : model_(model), tree_(model.tree()) {}

  CostModel::CriticalPathResult critical_path(const Placement& p,
                                              BandwidthResolver& r) const {
    State state{&r,
                std::vector<int>(
                    static_cast<std::size_t>(tree_.num_operators()), -1),
                {}, 0, 0};
    CostModel::CriticalPathResult result;
    double cost = exact_subtree_cost(Child::op(tree_.root()), p, state);
    const net::HostId root_host = p.location(tree_.root());
    if (root_host != tree_.client_host()) {
      cost += model_.edge_cost(root_host, tree_.client_host(), r,
                               &state.unknown_pairs);
      ++state.edges_resolved;
    }
    result.cost = cost;
    result.unknown_pairs = std::move(state.unknown_pairs);
    result.subtrees_pruned = state.subtrees_pruned;
    result.edges_resolved = state.edges_resolved;
    OperatorId op = tree_.root();
    for (;;) {
      result.path.push_back(op);
      const int idx = state.best_child[static_cast<std::size_t>(op)];
      const Child& c =
          idx == 0 ? tree_.left_child(op) : tree_.right_child(op);
      if (c.is_server()) {
        result.critical_server = c.index;
        break;
      }
      op = c.index;
    }
    return result;
  }

  // Which operators the walk of `p` explores rather than prunes, by
  // OperatorId.
  std::vector<bool> explored(const Placement& p, BandwidthResolver& r) const {
    State state{&r,
                std::vector<int>(
                    static_cast<std::size_t>(tree_.num_operators()), -1),
                {}, 0, 0};
    exact_subtree_cost(Child::op(tree_.root()), p, state);
    std::vector<bool> out;
    for (const int best : state.best_child) out.push_back(best >= 0);
    return out;
  }

  PlanOutcome plan(BandwidthResolver& resolver, Placement initial,
                   int max_iterations) const {
    PlanOutcome out;
    out.placement = std::move(initial);
    auto cp = critical_path(out.placement, resolver);
    out.cost = cp.cost;
    out.unknown_pairs.insert(cp.unknown_pairs.begin(),
                             cp.unknown_pairs.end());
    for (int iter = 0; iter < max_iterations; ++iter) {
      double best_cost = out.cost;
      Placement best = out.placement;
      bool candidate_found = false;
      for (const OperatorId op : cp.path) {
        const net::HostId current = out.placement.location(op);
        for (net::HostId host = 0; host < tree_.num_hosts(); ++host) {
          if (host == current) continue;
          Placement cand = out.placement;
          cand.set_location(op, host);
          auto cand_cp = critical_path(cand, resolver);
          ++out.candidates_evaluated;
          out.unknown_pairs.insert(cand_cp.unknown_pairs.begin(),
                                   cand_cp.unknown_pairs.end());
          if (cand_cp.cost <= best_cost) {
            best_cost = cand_cp.cost;
            best = std::move(cand);
            candidate_found = true;
          }
        }
      }
      if (!candidate_found || best_cost >= out.cost) break;
      out.placement = std::move(best);
      out.cost = best_cost;
      ++out.iterations;
      cp = critical_path(out.placement, resolver);
    }
    return out;
  }

 private:
  struct State {
    BandwidthResolver* resolver;
    std::vector<int> best_child;
    std::set<HostPair> unknown_pairs;
    std::uint64_t subtrees_pruned;
    std::uint64_t edges_resolved;
  };

  double pessimistic_edge() const {
    return kMessageStartupSeconds + kMeanImageBytes / kPessimisticBandwidth;
  }

  double subtree_upper_bound(const Child& child, const Placement& p) const {
    if (child.is_server()) return model_.disk_cost();
    const OperatorId op = child.index;
    const net::HostId here = p.location(op);
    double best = 0;
    for (const Child& c : {tree_.left_child(op), tree_.right_child(op)}) {
      const net::HostId child_host = p.child_host(tree_, c);
      const double edge = child_host == here ? 0.0 : pessimistic_edge();
      best = std::max(best, subtree_upper_bound(c, p) + edge);
    }
    return best + model_.compute_cost();
  }

  double exact_subtree_cost(const Child& child, const Placement& p,
                            State& state) const {
    if (child.is_server()) return model_.disk_cost();
    const OperatorId op = child.index;
    const net::HostId here = p.location(op);
    const Child children[2] = {tree_.left_child(op), tree_.right_child(op)};
    double ubs[2];
    for (int i = 0; i < 2; ++i) {
      const net::HostId ch = p.child_host(tree_, children[i]);
      ubs[i] = subtree_upper_bound(children[i], p) +
               (ch == here ? 0.0 : pessimistic_edge());
    }
    const int first = ubs[0] >= ubs[1] ? 0 : 1;
    const int second = 1 - first;
    const auto contribution = [&](int i) {
      const net::HostId ch = p.child_host(tree_, children[i]);
      const double sub = exact_subtree_cost(children[i], p, state);
      double edge = 0;
      if (ch != here) {
        edge = model_.edge_cost(ch, here, *state.resolver,
                                &state.unknown_pairs);
        ++state.edges_resolved;
      }
      return sub + edge;
    };
    const double c_first = contribution(first);
    double best = c_first;
    int best_idx = first;
    if (ubs[second] > c_first) {
      const double c_second = contribution(second);
      if (c_second > c_first) {
        best = c_second;
        best_idx = second;
      }
    } else {
      ++state.subtrees_pruned;
    }
    state.best_child[static_cast<std::size_t>(op)] = best_idx;
    return best + model_.compute_cost();
  }

  const CostModel& model_;
  const CombinationTree& tree_;
};

// ---- random inputs ----------------------------------------------------------

// A MapResolver that also counts how often each pair was asked about.
class CountingResolver final : public BandwidthResolver {
 public:
  explicit CountingResolver(const MapResolver& table) : table_(table) {}

  std::optional<double> bandwidth(net::HostId a, net::HostId b) override {
    ++asked_[make_pair_key(a, b)];
    return table_.bandwidth(a, b);
  }

  std::set<HostPair> asked() const {
    std::set<HostPair> pairs;
    for (const auto& [pair, n] : asked_) pairs.insert(pair);
    return pairs;
  }
  int max_asks() const {
    int most = 0;
    for (const auto& [pair, n] : asked_) most = std::max(most, n);
    return most;
  }

 private:
  MapResolver table_;
  std::map<HostPair, int> asked_;
};

// Random bottom-up merge order: repeatedly combine two random clusters.
CombinationTree random_custom_tree(int servers, Rng& rng) {
  std::vector<Child> clusters;
  for (int s = 0; s < servers; ++s) clusters.push_back(Child::server(s));
  std::vector<std::pair<Child, Child>> ops;
  while (clusters.size() > 1) {
    const std::size_t i = rng.next_below(clusters.size());
    const Child a = clusters[i];
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(i));
    const std::size_t j = rng.next_below(clusters.size());
    const Child b = clusters[j];
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(j));
    ops.emplace_back(a, b);
    clusters.push_back(Child::op(static_cast<OperatorId>(ops.size()) - 1));
  }
  return CombinationTree::custom(servers, ops);
}

CombinationTree random_tree(Rng& rng) {
  // 3..33 hosts: up to fig8's 32 servers, so a left-deep tree's critical
  // path can be a 31-operator chain.
  const int servers = 2 + static_cast<int>(rng.next_below(31));
  switch (rng.next_below(4)) {
    case 0:
      return CombinationTree::complete_binary(servers);
    case 1:
      return CombinationTree::left_deep(servers);
    case 2:
      return CombinationTree::right_deep(servers);
    default:
      return random_custom_tree(servers, rng);
  }
}

// Bandwidths above the pessimistic 400 B/s (the condition for exact
// pruning), with each pair missing with probability `missing`.
MapResolver random_resolver(int hosts, double missing, Rng& rng) {
  MapResolver r;
  for (net::HostId a = 0; a < hosts; ++a) {
    for (net::HostId b = a + 1; b < hosts; ++b) {
      if (!rng.bernoulli(missing)) r.set(a, b, rng.uniform(500, 400e3));
    }
  }
  return r;
}

Placement random_placement(const CombinationTree& tree, Rng& rng) {
  Placement p = Placement::all_at_client(tree);
  if (rng.bernoulli(0.25)) return p;
  for (OperatorId op = 0; op < tree.num_operators(); ++op) {
    p.set_location(op, static_cast<net::HostId>(rng.next_below(
                           static_cast<std::uint64_t>(tree.num_hosts()))));
  }
  return p;
}

double random_missing(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    default:
      return rng.uniform(0.05, 0.6);
  }
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

// ---- tests ------------------------------------------------------------------

TEST(PlannerDifferential, CriticalPathMatchesTheReferenceWalk) {
  Rng rng(0xc0de);
  for (int trial = 0; trial < 400; ++trial) {
    const CombinationTree tree = random_tree(rng);
    const CostModel model(tree, CostModelParams{});
    const MapResolver table =
        random_resolver(tree.num_hosts(), random_missing(rng), rng);
    const Placement p = random_placement(tree, rng);

    CountingResolver want_r(table);
    CountingResolver got_r(table);
    const auto want = ReferenceSearch(model).critical_path(p, want_r);
    const auto got = model.critical_path(p, got_r);
    SCOPED_TRACE(tree.to_string() + " " + p.to_string());
    ASSERT_TRUE(same_bits(got.cost, want.cost))
        << got.cost << " vs " << want.cost;
    EXPECT_EQ(got.path, want.path);
    EXPECT_EQ(got.critical_server, want.critical_server);
    EXPECT_EQ(got.unknown_pairs, want.unknown_pairs);
    EXPECT_EQ(got.subtrees_pruned, want.subtrees_pruned);
    EXPECT_EQ(got.edges_resolved, want.edges_resolved);
    EXPECT_EQ(got_r.asked(), want_r.asked());
  }
}

TEST(PlannerDifferential, OneShotPlanMatchesTheReferenceSearch) {
  Rng rng(0x91a7);
  int improved = 0;
  int with_unknowns = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CombinationTree tree = random_tree(rng);
    const CostModel model(tree, CostModelParams{});
    const MapResolver table =
        random_resolver(tree.num_hosts(), random_missing(rng), rng);
    const Placement initial = random_placement(tree, rng);
    OneShotParams params;
    if (rng.bernoulli(0.2)) {
      params.max_iterations = static_cast<int>(rng.next_below(3));
    }

    CountingResolver want_r(table);
    CountingResolver got_r(table);
    const PlanOutcome want =
        ReferenceSearch(model).plan(want_r, initial, params.max_iterations);
    const PlanOutcome got = OneShotPlanner(model, params).plan(got_r, initial);
    SCOPED_TRACE(tree.to_string() + " from " + initial.to_string());
    EXPECT_EQ(got.placement, want.placement);
    ASSERT_TRUE(same_bits(got.cost, want.cost))
        << got.cost << " vs " << want.cost;
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated);
    EXPECT_EQ(got.unknown_pairs, want.unknown_pairs);
    EXPECT_EQ(got_r.asked(), want_r.asked());
    // The planner asks the resolver about each pair at most once per call.
    EXPECT_LE(got_r.max_asks(), 1);
    if (got.iterations > 0) ++improved;
    if (!got.unknown_pairs.empty()) ++with_unknowns;
  }
  // The inputs exercise both committed moves and sparse knowledge.
  EXPECT_GT(improved, 100);
  EXPECT_GT(with_unknowns, 100);
}

// move_cost against critical_path_cost of the moved placement, the way the
// planner uses it: many moves against one base walk, each side through its
// own memo. After every move the costs are bit-identical and the two memos
// hold the same unknown pairs and have put the same pairs to the resolver.
TEST(PlannerDifferential, MoveCostMatchesAWalkOfTheMovedPlacement) {
  Rng rng(0x3a7e);
  int moves = 0;
  // Moves whose walk explores an off-chain subtree the base walk pruned.
  int explores_pruned = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CombinationTree tree = random_tree(rng);
    const CostModel model(tree, CostModelParams{});
    const ReferenceSearch reference(model);
    const MapResolver table =
        random_resolver(tree.num_hosts(), random_missing(rng), rng);
    const Placement base = random_placement(tree, rng);
    SCOPED_TRACE(tree.to_string() + " " + base.to_string());

    CountingResolver got_r(table);
    CountingResolver want_r(table);
    MapResolver quiet(table);  // for `explored`, outside both memos
    std::set<HostPair> got_unknown;
    std::set<HostPair> want_unknown;
    CostModel::EdgeMemo got_memo(model, got_r, &got_unknown);
    CostModel::EdgeMemo want_memo(model, want_r, &want_unknown);
    ASSERT_TRUE(same_bits(model.critical_path_cost(base, got_memo),
                          model.critical_path_cost(base, want_memo)));
    const std::vector<bool> base_explored = reference.explored(base, quiet);

    const auto pick = [&](int n) {
      return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    };
    for (int m = 0; m < 6; ++m) {
      const OperatorId op = pick(tree.num_operators());
      std::vector<bool> on_chain(
          static_cast<std::size_t>(tree.num_operators()), false);
      for (OperatorId o = op; o != kNoOperator; o = tree.parent(o)) {
        on_chain[static_cast<std::size_t>(o)] = true;
      }
      model.begin_move(base, op, got_memo);
      for (int h = 0; h < 4; ++h) {
        const net::HostId host = pick(tree.num_hosts());
        Placement moved = base;
        moved.set_location(op, host);
        SCOPED_TRACE("move " + std::to_string(op) + " to " +
                     std::to_string(host));
        const double got = model.move_cost(base, host, got_memo);
        const double want = model.critical_path_cost(moved, want_memo);
        ASSERT_TRUE(same_bits(got, want)) << got << " vs " << want;
        ASSERT_EQ(got_unknown, want_unknown);
        ASSERT_EQ(got_r.asked(), want_r.asked());
        ++moves;
        const std::vector<bool> now_explored = reference.explored(moved, quiet);
        for (std::size_t o = 0; o < on_chain.size(); ++o) {
          if (!on_chain[o] && now_explored[o] && !base_explored[o]) {
            ++explores_pruned;
            break;
          }
        }
      }
    }
    EXPECT_LE(got_r.max_asks(), 1);
  }
  EXPECT_EQ(moves, 300 * 6 * 4);
  EXPECT_GT(explores_pruned, 100);
}

}  // namespace
}  // namespace wadc::core
