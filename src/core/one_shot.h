// The one-shot placement algorithm (§2.1).
//
// Starting from a placement (all-at-client for start-up planning; the
// current placement when reused by the global algorithm, §2.2), repeatedly:
// compute the critical path, try every alternative location for every
// operator on it, and commit the single best move. Stops when no move
// improves the critical-path cost. The search only resolves bandwidth for
// links that candidate evaluations actually touch, so only a subset of the
// links needs to be measured.
//
// Each iteration walks the current placement's whole tree once; each
// candidate move is then costed along the moved operator's chain to the
// root (CostModel::move_cost), which gives the cost a whole-tree walk of
// the moved placement would and resolves the same links.
#pragma once

#include <cstdint>
#include <set>

#include "core/cost_model.h"

namespace wadc::core {

struct OneShotParams {
  // Safety valve; the algorithm normally converges in a handful of
  // iterations since each one must strictly improve the cost.
  int max_iterations = 256;
};

struct PlanOutcome {
  Placement placement;
  double cost = 0;
  int iterations = 0;  // committed improvement steps
  std::uint64_t candidates_evaluated = 0;
  // Pairs whose bandwidth was wanted but unknown; the planning driver
  // probes these and re-plans.
  std::set<HostPair> unknown_pairs;
};

class OneShotPlanner {
 public:
  OneShotPlanner(const CostModel& model, const OneShotParams& params = {})
      : model_(model), params_(params) {}

  // Runs the search from `initial`. Pure computation: all bandwidth
  // knowledge comes from the resolver.
  PlanOutcome plan(BandwidthResolver& resolver, Placement initial) const;

  // Convenience for start-up planning: initial = all operators at client.
  PlanOutcome plan_from_scratch(BandwidthResolver& resolver) const;

 private:
  const CostModel& model_;
  OneShotParams params_;
};

}  // namespace wadc::core
