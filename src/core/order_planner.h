// Joint combination-order and placement planning (extension).
//
// The paper's fourth question — does the effectiveness of relocation depend
// on the *ordering* of the combination operations? — is answered statically
// in its Figure 10 (complete binary beats left-deep). The natural follow-up
// its conclusions hint at is to adapt the order itself: choose how sources
// are paired *from measured bandwidth*, not just where the operators run.
//
// The planner is greedy-agglomerative: starting from the servers, it
// repeatedly merges the pair of available subtrees (at the host) with the
// cheapest local critical path — max of the two input-edge costs, plus the
// composition cost, biased by an estimate of the eventual output edge. The
// resulting tree is then refined with the one-shot placement search, and
// the engine's barrier-based change-over switches tree and placement
// atomically (every iteration executes entirely under one (tree, placement)
// epoch).
#pragma once

#include <set>

#include "core/cost_model.h"
#include "core/one_shot.h"

namespace wadc::core {

struct OrderPlannerOptions {
  // Restrict operator sites to the client: the order still adapts but no
  // operator ever leaves the client — the query-scrambling-style
  // "reorder-only" adaptation the paper's introduction argues is inherently
  // limited ("not able to reposition operators in response to persistent or
  // long-term changes in bandwidth", §1).
  bool fix_at_client = false;
};

struct OrderPlanOutcome {
  CombinationTree tree;
  Placement placement;
  double cost = 0;  // critical-path cost of (tree, placement)
  std::set<HostPair> unknown_pairs;
};

class OrderPlanner {
 public:
  explicit OrderPlanner(int num_servers,
                        const OneShotParams& one_shot_params = {},
                        const OrderPlannerOptions& options = {})
      : num_servers_(num_servers),
        one_shot_params_(one_shot_params),
        options_(options) {}

  // Plans a (tree, placement) pair from the resolver's bandwidth knowledge.
  // Unknown links are collected for the caller to probe-and-replan, exactly
  // like OneShotPlanner.
  OrderPlanOutcome plan(BandwidthResolver& resolver) const;

 private:
  int num_servers_;
  OneShotParams one_shot_params_;
  OrderPlannerOptions options_;
};

}  // namespace wadc::core
