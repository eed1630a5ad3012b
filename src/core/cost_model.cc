#include "core/cost_model.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::core {

CostModel::CostModel(const CombinationTree& tree,
                     const CostModelParams& params)
    : tree_(tree), params_(params) {
  WADC_ASSERT(params_.partition_bytes > 0, "non-positive partition size");
  WADC_ASSERT(params_.pessimistic_bandwidth > 0,
              "non-positive pessimistic bandwidth");
  WADC_ASSERT(params_.disk_bytes_per_second > 0, "non-positive disk rate");
  inputs_.resize(static_cast<std::size_t>(tree_.num_operators()));
  for (OperatorId op = 0; op < tree_.num_operators(); ++op) {
    const Child children[2] = {tree_.left_child(op), tree_.right_child(op)};
    for (int i = 0; i < 2; ++i) {
      Input& in = inputs_[static_cast<std::size_t>(op)][i];
      if (children[i].is_server()) {
        in.server_host = tree_.server_host(children[i].index);
      } else {
        in.op = children[i].index;
      }
    }
  }
}

double CostModel::compute_cost() const {
  return params_.compute_seconds_per_byte * params_.partition_bytes;
}

double CostModel::disk_cost() const {
  return params_.partition_bytes / params_.disk_bytes_per_second;
}

double CostModel::edge_cost(net::HostId from, net::HostId to,
                            BandwidthResolver& r,
                            std::set<HostPair>* unknown) const {
  if (from == to) return 0;
  const auto bw = r.bandwidth(from, to);
  if (!bw) {
    if (unknown != nullptr) unknown->insert(make_pair_key(from, to));
    return params_.startup_seconds +
           params_.partition_bytes / params_.pessimistic_bandwidth;
  }
  WADC_ASSERT(*bw > 0, "resolver returned non-positive bandwidth");
  return params_.startup_seconds + params_.partition_bytes / *bw;
}

CostModel::EdgeMemo::EdgeMemo(const CostModel& model, BandwidthResolver& r,
                              std::set<HostPair>* unknown)
    : resolver_(r),
      unknown_(unknown),
      costs_(net::pair_count(model.tree().num_hosts()), -1.0),
      ops_(static_cast<std::size_t>(model.tree().num_operators())) {}

struct CostModel::Walk {
  const net::HostId* location;  // by OperatorId
  BandwidthResolver& resolver;
  std::set<HostPair>* unknown;
  double* memo;  // EdgeMemo::costs_, or null to ask the resolver every time
  OpScratch* ops;
  double pessimistic_edge = 0;
  std::uint64_t subtrees_pruned = 0;
  std::uint64_t edges_resolved = 0;

  net::HostId host(const Input& in) const {
    return in.op == kNoOperator ? in.server_host
                                : location[static_cast<std::size_t>(in.op)];
  }
};

double CostModel::walk_edge(net::HostId from, net::HostId to,
                            Walk& w) const {
  ++w.edges_resolved;
  if (w.memo == nullptr) return edge_cost(from, to, w.resolver, w.unknown);
  double& cost = w.memo[net::pair_index(from, to, tree_.num_hosts())];
  if (cost < 0) cost = edge_cost(from, to, w.resolver, w.unknown);
  return cost;
}

double CostModel::walk(Walk& w) const {
  w.pessimistic_edge = params_.startup_seconds +
                       params_.partition_bytes / params_.pessimistic_bandwidth;
  // Upper bounds, children before parents. A bound uses host co-location
  // (free to check) but resolves no bandwidth: every cross-host edge runs
  // at the pessimistic bandwidth.
  for (const OperatorId op : tree_.topological_order()) {
    const net::HostId here = w.location[static_cast<std::size_t>(op)];
    double best = 0;
    for (const Input& in : inputs_[static_cast<std::size_t>(op)]) {
      const double sub = in.op == kNoOperator
                             ? disk_cost()
                             : w.ops[static_cast<std::size_t>(in.op)].bound;
      const double edge = w.host(in) == here ? 0.0 : w.pessimistic_edge;
      best = std::max(best, sub + edge);
    }
    w.ops[static_cast<std::size_t>(op)].bound = best + compute_cost();
  }

  double cost = subtree_cost(tree_.root(), w);
  // Final hop: root operator to the client.
  const net::HostId root_host =
      w.location[static_cast<std::size_t>(tree_.root())];
  if (root_host != tree_.client_host()) {
    cost += walk_edge(root_host, tree_.client_host(), w);
  }
  return cost;
}

double CostModel::subtree_cost(OperatorId op, Walk& w) const {
  const std::array<Input, 2>& inputs = inputs_[static_cast<std::size_t>(op)];
  const net::HostId here = w.location[static_cast<std::size_t>(op)];

  // Order the two inputs by optimistic upper bound, evaluate the larger
  // first, and skip the other entirely if its bound cannot win.
  net::HostId hosts[2];
  double ubs[2];
  for (int i = 0; i < 2; ++i) {
    hosts[i] = w.host(inputs[i]);
    const double sub =
        inputs[i].op == kNoOperator
            ? disk_cost()
            : w.ops[static_cast<std::size_t>(inputs[i].op)].bound;
    ubs[i] = sub + (hosts[i] == here ? 0.0 : w.pessimistic_edge);
  }
  const int first = ubs[0] >= ubs[1] ? 0 : 1;
  const int second = 1 - first;

  const auto contribution = [&](int i) {
    const double sub = inputs[i].op == kNoOperator
                           ? disk_cost()
                           : subtree_cost(inputs[i].op, w);
    const double edge = hosts[i] == here ? 0.0 : walk_edge(hosts[i], here, w);
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
    ++w.subtrees_pruned;
  }

  w.ops[static_cast<std::size_t>(op)].best_input = best_idx;
  return best + compute_cost();
}

int CostModel::trace_path(const OpScratch* ops,
                          std::vector<OperatorId>& path) const {
  // Walk the argmax chain from the root down to the critical server.
  path.clear();
  OperatorId op = tree_.root();
  for (;;) {
    path.push_back(op);
    const int idx = ops[static_cast<std::size_t>(op)].best_input;
    WADC_ASSERT(idx == 0 || idx == 1, "operator missing best-child mark");
    const Child& c =
        idx == 0 ? tree_.left_child(op) : tree_.right_child(op);
    if (c.is_server()) return c.index;
    op = c.index;
  }
}

CostModel::CriticalPathResult CostModel::critical_path(
    const Placement& p, BandwidthResolver& r) const {
  WADC_ASSERT(p.num_operators() == tree_.num_operators(),
              "placement does not match tree");
  std::vector<OpScratch> ops(static_cast<std::size_t>(tree_.num_operators()));
  CriticalPathResult result;
  Walk w{p.locations().data(), r, &result.unknown_pairs, nullptr, ops.data()};
  result.cost = walk(w);
  result.subtrees_pruned = w.subtrees_pruned;
  result.edges_resolved = w.edges_resolved;
  result.critical_server = trace_path(ops.data(), result.path);
  return result;
}

double CostModel::critical_path_cost(const Placement& p, EdgeMemo& memo,
                                     std::vector<OperatorId>* path) const {
  WADC_ASSERT(p.num_operators() == tree_.num_operators() &&
                  memo.ops_.size() == inputs_.size(),
              "placement or memo does not match tree");
  Walk w{p.locations().data(), memo.resolver_, memo.unknown_,
         memo.costs_.data(), memo.ops_.data()};
  const double cost = walk(w);
  if (path != nullptr) trace_path(memo.ops_.data(), *path);
  return cost;
}

}  // namespace wadc::core
