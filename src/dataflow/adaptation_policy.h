// The adaptation-policy layer: one strategy object per AlgorithmKind.
//
// A policy answers three questions for the engine, acting only through the
// EngineServices seam (never on the Engine directly):
//
//   - plan_startup: where do operators start, and under which combination
//     tree? (§2.1 one-shot branch-and-bound for everything but the
//     download-all baseline; the order-adaptive extension also chooses the
//     tree.)
//   - replan: given the current plan, should the run change over to a new
//     one? Only asked for the barrier-coordinated (global) family; the
//     change-over itself — barrier, epochs, moves — is the coordinator's
//     job (change_over.h).
//   - relocation_window: what does one operator do in its per-iteration
//     relocation window? Only the local algorithm acts here (§2.3 staggered
//     epochs + later-producer marking).
//
// The traits (uses_directory / uses_barrier / adapts_order /
// acts_in_window) are fixed per algorithm; the engine caches them at
// construction so its dispatch path never branches on AlgorithmKind — the
// registry (make_adaptation_policy) is the single place the enum is
// inspected.
#pragma once

#include <memory>

#include "core/algorithm_kind.h"
#include "core/combination_tree.h"
#include "core/placement.h"
#include "dataflow/engine_services.h"
#include "sim/task.h"

namespace wadc::dataflow {

// The start-up decision: the tree to execute and the initial placement.
struct StartupPlan {
  core::CombinationTree tree;
  core::Placement placement;
};

// One periodic replanning decision. `tree`/`placement` are always
// populated — with the proposed plan when `changed`, otherwise with the
// plan that was current when the decision started (fault-mode sanitizing
// may still turn an unchanged decision into a change-over).
struct ReplanDecision {
  bool changed = false;
  core::CombinationTree tree;
  core::Placement placement;
};

class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;

  // ---- traits (fixed per algorithm) -------------------------------------
  // Routes through per-host operator directories with gossip (§2.3).
  virtual bool uses_directory() const { return false; }
  // Replans periodically and changes over via the barrier protocol (§2.2).
  virtual bool uses_barrier() const { return false; }
  // Change-overs may switch the combination tree, not just the placement.
  virtual bool adapts_order() const { return false; }
  // relocation_window acts; the engine skips awaiting it otherwise.
  virtual bool acts_in_window() const { return false; }

  // ---- hooks -------------------------------------------------------------
  virtual sim::Task<StartupPlan> plan_startup(EngineServices& services) = 0;
  // Only called when uses_barrier(); the default asserts.
  virtual sim::Task<ReplanDecision> replan(EngineServices& services);
  // Per-operator relocation-window action; default does nothing. A policy
  // that overrides it says so through acts_in_window().
  virtual sim::Task<void> relocation_window(EngineServices& services,
                                            core::OperatorId op);
};

// The registry: the one place AlgorithmKind is dispatched on.
std::unique_ptr<AdaptationPolicy> make_adaptation_policy(
    core::AlgorithmKind kind);

// Probe-and-replan rounds for unknown link bandwidths: a planner that still
// lacks samples after this many probe rounds plans with what it has.
inline constexpr int kMaxPlanProbeRounds = 4;

}  // namespace wadc::dataflow
