#include "core/cost_model.h"

#include <algorithm>

#include "common/assert.h"
#include "common/model_constants.h"

namespace wadc::core {

namespace {

// The transfer cost of one partition over a link with no measurement.
constexpr double kPessimisticEdgeSeconds =
    kMessageStartupSeconds + kMeanImageBytes / kPessimisticBandwidth;

// The upper-bound term of one input: its bound plus the pessimistic edge
// to `here`, or nothing when co-located.
double bound_term(double bound, net::HostId from, net::HostId here) {
  return bound + (from == here ? 0.0 : kPessimisticEdgeSeconds);
}

// The pruning step at one operator, shared by the full walk and a move's
// chain walk: explores the input with the larger upper-bound term first,
// and the other only if its term can beat the first's exact contribution
// — a skipped input resolves none of its links' bandwidth. Returns the
// larger contribution; `best_input` receives its input.
template <typename Contribution>
double explore_inputs(const double (&terms)[2],
                      const Contribution& contribution, int& best_input,
                      std::uint64_t& pruned) {
  const int first = terms[0] >= terms[1] ? 0 : 1;
  const int second = 1 - first;
  const double c_first = contribution(first);
  best_input = first;
  if (terms[second] > c_first) {
    const double c_second = contribution(second);
    if (c_second > c_first) {
      best_input = second;
      return c_second;
    }
  } else {
    ++pruned;
  }
  return c_first;
}

}  // namespace

CostModel::CostModel(const CombinationTree& tree, const CostModelParams&)
    : tree_(tree) {
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
  return kComputeSecondsPerByte * kMeanImageBytes;
}

double CostModel::disk_cost() const {
  return kMeanImageBytes / kDiskBytesPerSecond;
}

double CostModel::edge_cost(net::HostId from, net::HostId to,
                            BandwidthResolver& r,
                            std::set<HostPair>* unknown) const {
  if (from == to) return 0;
  const auto bw = r.bandwidth(from, to);
  if (!bw) {
    if (unknown != nullptr) unknown->insert(make_pair_key(from, to));
    return kPessimisticEdgeSeconds;
  }
  WADC_ASSERT(*bw > 0, "resolver returned non-positive bandwidth");
  return kMessageStartupSeconds + kMeanImageBytes / *bw;
}

CostModel::EdgeMemo::EdgeMemo(const CostModel& model, BandwidthResolver& r,
                              std::set<HostPair>* unknown)
    : resolver_(r),
      unknown_(unknown),
      costs_(net::pair_count(model.tree().num_hosts()), -1.0),
      ops_(static_cast<std::size_t>(model.tree().num_operators())) {
  chain_.reserve(ops_.size());
}

struct CostModel::Walk {
  const net::HostId* location;  // by OperatorId
  BandwidthResolver& resolver;
  std::set<HostPair>* unknown;
  double* memo;  // EdgeMemo::costs_, or null to ask the resolver every time
  OpScratch* ops;
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
      best = std::max(best, bound_term(sub, w.host(in), here));
    }
    OpScratch& s = w.ops[static_cast<std::size_t>(op)];
    s.bound = best + compute_cost();
    s.exact = -1;
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

  net::HostId hosts[2];
  double terms[2];
  for (int i = 0; i < 2; ++i) {
    hosts[i] = w.host(inputs[i]);
    const double sub =
        inputs[i].op == kNoOperator
            ? disk_cost()
            : w.ops[static_cast<std::size_t>(inputs[i].op)].bound;
    terms[i] = bound_term(sub, hosts[i], here);
  }
  const auto contribution = [&](int i) {
    const double sub = inputs[i].op == kNoOperator
                           ? disk_cost()
                           : subtree_cost(inputs[i].op, w);
    const double edge = hosts[i] == here ? 0.0 : walk_edge(hosts[i], here, w);
    return sub + edge;
  };
  OpScratch& s = w.ops[static_cast<std::size_t>(op)];
  s.exact = explore_inputs(terms, contribution, s.best_input,
                           w.subtrees_pruned) +
            compute_cost();
  return s.exact;
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

void CostModel::begin_move(const Placement& p, OperatorId op,
                           EdgeMemo& memo) const {
  WADC_ASSERT(p.num_operators() == tree_.num_operators() &&
                  memo.ops_.size() == inputs_.size(),
              "placement or memo does not match tree");
  const net::HostId* location = p.locations().data();
  std::vector<ChainLevel>& chain = memo.chain_;
  chain.clear();
  for (OperatorId below = kNoOperator; op != kNoOperator;
       below = op, op = tree_.parent(op)) {
    const std::array<Input, 2>& inputs = inputs_[static_cast<std::size_t>(op)];
    ChainLevel& level = chain.emplace_back();
    level.here = location[static_cast<std::size_t>(op)];
    if (below != kNoOperator) level.toward_move = inputs[0].op == below ? 0 : 1;
    for (int i = 0; i < 2; ++i) {
      if (i == level.toward_move) continue;
      const Input& in = inputs[i];
      FixedInput& fixed = level.in[i];
      fixed.op = in.op;
      if (in.op == kNoOperator) {
        fixed.host = in.server_host;
        fixed.bound = disk_cost();
      } else {
        fixed.host = location[static_cast<std::size_t>(in.op)];
        fixed.bound = memo.ops_[static_cast<std::size_t>(in.op)].bound;
      }
      // Above the moved operator this term is the same for every host.
      level.terms[i] = bound_term(fixed.bound, fixed.host, level.here);
    }
  }
}

double CostModel::move_cost(const Placement& p, net::HostId host,
                            EdgeMemo& memo) const {
  std::vector<ChainLevel>& chain = memo.chain_;
  WADC_ASSERT(!chain.empty(), "move_cost() before begin_move()");
  // Bounds, from the moved operator up to the root: the expression the
  // full walk evaluates for these operators, on the same terms.
  double bound = 0;
  for (std::size_t j = 0; j < chain.size(); ++j) {
    ChainLevel& level = chain[j];
    if (j == 0) {
      level.here = host;
      for (int i = 0; i < 2; ++i) {
        level.terms[i] = bound_term(level.in[i].bound, level.in[i].host, host);
      }
    } else {
      level.terms[level.toward_move] =
          bound_term(bound, chain[j - 1].here, level.here);
    }
    bound = std::max(std::max(0.0, level.terms[0]), level.terms[1]) +
            compute_cost();
  }

  Walk w{p.locations().data(), memo.resolver_, memo.unknown_,
         memo.costs_.data(), memo.ops_.data()};
  const std::size_t top = chain.size() - 1;
  double cost = chain_cost(chain.data(), top, w);
  const net::HostId root_host = chain[top].here;
  if (root_host != tree_.client_host()) {
    cost += walk_edge(root_host, tree_.client_host(), w);
  }
  return cost;
}

double CostModel::chain_cost(const ChainLevel* chain, std::size_t j,
                             Walk& w) const {
  const ChainLevel& level = chain[j];
  const auto contribution = [&](int i) {
    double sub;
    net::HostId from;
    if (i == level.toward_move) {
      sub = chain_cost(chain, j - 1, w);
      from = chain[j - 1].here;
    } else {
      sub = fixed_cost(level.in[i], w);
      from = level.in[i].host;
    }
    const double edge =
        from == level.here ? 0.0 : walk_edge(from, level.here, w);
    return sub + edge;
  };
  int best_input;
  return explore_inputs(level.terms, contribution, best_input,
                        w.subtrees_pruned) +
         compute_cost();
}

double CostModel::fixed_cost(const FixedInput& in, Walk& w) const {
  if (in.op == kNoOperator) return disk_cost();
  const double exact = w.ops[static_cast<std::size_t>(in.op)].exact;
  return exact >= 0 ? exact : subtree_cost(in.op, w);
}

}  // namespace wadc::core
