#include "core/order_planner.h"

#include <limits>
#include <vector>

#include "common/assert.h"
#include "common/model_constants.h"

namespace wadc::core {

namespace {

// A subtree available for merging during the greedy construction.
struct Cluster {
  Child top;                 // server or operator producing this subtree
  net::HostId host;          // where its output currently materializes
  double path_cost = 0;      // longest path cost inside the subtree
};

}  // namespace

OrderPlanOutcome OrderPlanner::plan(BandwidthResolver& resolver) const {
  WADC_ASSERT(num_servers_ >= 2, "need at least two servers");
  const int num_hosts = num_servers_ + 1;
  const net::HostId client = 0;

  std::set<HostPair> unknown;
  const double compute = kComputeSecondsPerByte * kMeanImageBytes;
  const double disk = kMeanImageBytes / kDiskBytesPerSecond;

  const auto edge = [&](net::HostId from, net::HostId to) {
    if (from == to) return 0.0;
    const auto bw = resolver.bandwidth(from, to);
    if (!bw) {
      unknown.insert(make_pair_key(from, to));
      return kMessageStartupSeconds + kMeanImageBytes / kPessimisticBandwidth;
    }
    return kMessageStartupSeconds + kMeanImageBytes / *bw;
  };

  std::vector<Cluster> clusters;
  clusters.reserve(static_cast<std::size_t>(num_servers_));
  for (int s = 0; s < num_servers_; ++s) {
    clusters.push_back(
        Cluster{Child::server(s), static_cast<net::HostId>(s + 1), disk});
  }

  std::vector<std::pair<Child, Child>> merge_order;
  std::vector<net::HostId> op_hosts;

  while (clusters.size() > 1) {
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best_i = 0, best_j = 1;
    net::HostId best_host = client;
    double best_path = 0;

    const net::HostId first_host = client;
    const net::HostId last_host =
        options_.fix_at_client ? client : num_hosts - 1;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        for (net::HostId w = first_host; w <= last_host; ++w) {
          const double in_i =
              clusters[i].path_cost + edge(clusters[i].host, w);
          const double in_j =
              clusters[j].path_cost + edge(clusters[j].host, w);
          const double path = std::max(in_i, in_j) + compute;
          // Bias by the eventual hop toward the client so the greedy choice
          // does not strand composed data behind a slow outgoing link.
          const double score = path + edge(w, client);
          if (score < best_score) {
            best_score = score;
            best_i = i;
            best_j = j;
            best_host = w;
            best_path = path;
          }
        }
      }
    }

    merge_order.push_back({clusters[best_i].top, clusters[best_j].top});
    op_hosts.push_back(best_host);
    const auto op = static_cast<OperatorId>(merge_order.size()) - 1;

    Cluster merged;
    merged.top = Child::op(op);
    merged.host = best_host;
    merged.path_cost = best_path;
    // Replace cluster i with the merge, remove j (j > i).
    clusters[best_i] = merged;
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(best_j));
  }

  OrderPlanOutcome outcome{
      CombinationTree::custom(num_servers_, merge_order),
      Placement(std::vector<net::HostId>(op_hosts)), 0, {}};

  if (options_.fix_at_client) {
    // Reorder-only: no placement refinement, cost as-is at the client.
    const CostModel model(outcome.tree, CostModelParams{});
    outcome.cost = model.placement_cost(outcome.placement, resolver);
    outcome.unknown_pairs = std::move(unknown);
    return outcome;
  }
  // Refine the placement on the chosen tree with the one-shot search.
  const CostModel model(outcome.tree, CostModelParams{});
  const OneShotPlanner refiner(model, one_shot_params_);
  PlanOutcome refined = refiner.plan(resolver, outcome.placement);
  outcome.placement = std::move(refined.placement);
  outcome.cost = refined.cost;
  unknown.insert(refined.unknown_pairs.begin(), refined.unknown_pairs.end());
  outcome.unknown_pairs = std::move(unknown);
  return outcome;
}

}  // namespace wadc::core
