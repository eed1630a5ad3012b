#include "core/one_shot.h"

#include "common/assert.h"

namespace wadc::core {

PlanOutcome OneShotPlanner::plan(BandwidthResolver& resolver,
                                 Placement initial) const {
  const CombinationTree& tree = model_.tree();
  WADC_ASSERT(initial.num_operators() == tree.num_operators(),
              "initial placement does not match tree");

  PlanOutcome out;
  out.placement = std::move(initial);

  // The resolver's answers cannot change during this call, so every walk
  // below shares one memo of edge costs: each pair is asked once, and an
  // unknown pair lands in out.unknown_pairs when first met.
  CostModel::EdgeMemo memo(model_, resolver, &out.unknown_pairs);
  std::vector<OperatorId> path;
  out.cost = model_.critical_path_cost(out.placement, memo, &path);

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    // Paper §2.1: C' <- C; for each operator on the critical path K,
    // consider all alternative locations; keep the cheapest; accept only if
    // it strictly improves on C. A candidate is costed along the moved
    // operator's chain to the root, against the walk of out.placement just
    // made, which the loop leaves unchanged.
    double best_cost = out.cost;
    OperatorId best_op = kNoOperator;
    net::HostId best_host = net::kInvalidHost;

    for (const OperatorId op : path) {
      const net::HostId current = out.placement.location(op);
      model_.begin_move(out.placement, op, memo);
      for (net::HostId host = 0; host < tree.num_hosts(); ++host) {
        if (host == current) continue;
        const double cost = model_.move_cost(out.placement, host, memo);
        ++out.candidates_evaluated;
        // "<=" as in the paper's pseudocode: later ties win within a pass.
        if (cost <= best_cost) {
          best_cost = cost;
          best_op = op;
          best_host = host;
        }
      }
    }

    // Stop when no candidate strictly improves on C (C' < C fails).
    if (best_op == kNoOperator || best_cost >= out.cost) break;
    out.placement.set_location(best_op, best_host);
    out.cost = best_cost;
    ++out.iterations;
    model_.critical_path_cost(out.placement, memo, &path);
  }
  return out;
}

PlanOutcome OneShotPlanner::plan_from_scratch(
    BandwidthResolver& resolver) const {
  return plan(resolver, Placement::all_at_client(model_.tree()));
}

}  // namespace wadc::core
