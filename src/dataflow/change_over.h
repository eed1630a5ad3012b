// The change-over service: everything that moves the running computation
// from one plan to another.
//
// Owns the plan epochs (which (tree, placement) governs each iteration),
// the operators' physical locations, the §2.2 barrier protocol (pending
// versions riding on demands, server reports, the high-priority release
// broadcast, the atomic switch iteration), the §2 light-move relocation,
// and the fault-repair relocation sweep — repair reuses the same location
// bookkeeping and light-move path as planned change-overs.
//
// The coordinator acts on the engine only through EngineServices, so it is
// unit-testable against a mock (change_over_test.cc); the engine forwards
// its public routing queries (placement_for / operator_location) here.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/combination_tree.h"
#include "dataflow/engine_services.h"
#include "dataflow/messages.h"
#include "net/types.h"
#include "obs/obs.h"
#include "sim/mailbox.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace wadc::dataflow {

class AdaptationPolicy;

// Which engine features the active policy uses; cached from the policy's
// traits so neither the engine nor the coordinator branches on
// AlgorithmKind.
struct PolicyTraits {
  bool uses_directory = false;
  bool uses_barrier = false;
  bool adapts_order = false;
};

class ChangeOverCoordinator {
 public:
  ChangeOverCoordinator(sim::Simulation& sim, EngineServices& services,
                        const core::CombinationTree& tree,
                        const obs::Obs& obs, RunStats& stats,
                        PolicyTraits traits);

  ChangeOverCoordinator(const ChangeOverCoordinator&) = delete;
  ChangeOverCoordinator& operator=(const ChangeOverCoordinator&) = delete;

  // ---- plan epochs -------------------------------------------------------
  struct PlanEpoch {
    int start_iteration = 0;
    core::CombinationTree tree;
    core::Placement placement;
  };
  const PlanEpoch& epoch_for(int iteration) const;
  const core::Placement& placement_for(int iteration) const {
    return epoch_for(iteration).placement;
  }
  const core::CombinationTree& tree_for(int iteration) const {
    return epoch_for(iteration).tree;
  }
  const PlanEpoch& current_epoch() const { return epochs_.back(); }
  // Replaces the construction-time epoch with the start-up plan.
  void install_startup_plan(core::CombinationTree tree,
                            core::Placement placement);

  net::HostId operator_location(core::OperatorId op) const;
  // Start-up install only; every later move goes through relocate()/repair.
  void set_location(core::OperatorId op, net::HostId loc);

  // ---- per-operator barrier protocol state (§2.2) ------------------------
  void note_pending_version(core::OperatorId op, int version);
  void note_version_forwarded(core::OperatorId op, int version);
  void note_fetch(core::OperatorId op, int iteration);
  int pending_version_seen(core::OperatorId op) const;
  // The active barrier's version, 0 when none (what the client stamps on
  // its demands).
  int pending_version() const;

  // ---- server-side protocol ----------------------------------------------
  // Delivers a server's barrier report to the coordinator at the client.
  void deliver_report(const BarrierReport& report);
  // Suspends until `h` has been released for `version`.
  sim::Task<void> await_release(net::HostId h, int version);

  // ---- replanning & change-over ------------------------------------------
  // The client-side periodic replanning loop (§2.2): asks the policy for a
  // decision each period and runs the barrier protocol when it changes.
  sim::Task<void> replanner_process(AdaptationPolicy& policy);
  // The per-operator relocation window's change-over half: stall while a
  // propagated pending placement awaits release, then apply this
  // operator's move once the switch iteration is known. A no-op unless a
  // barrier is active, so callers await it only while barrier_active().
  sim::Task<void> operator_window(core::OperatorId op, int iteration);
  bool barrier_active() const { return active_barrier_.has_value(); }

  // ---- relocation & repair -----------------------------------------------
  // Light-move relocation (§2): one control message, then the location
  // bookkeeping (and directory gossip when the policy uses directories).
  sim::Task<void> relocate(core::OperatorId op, net::HostId to);
  // Out-of-cycle repair: relocates every operator stranded on a dead host
  // to the best live site (the client when nothing better is alive).
  sim::Task<void> repair_process();
  bool repair_in_progress() const { return repair_in_progress_; }
  // Set synchronously (inside the fault event) before spawning
  // repair_process, so a second crash in the same instant cannot start a
  // second sweep.
  void mark_repair_started() { repair_in_progress_ = true; }
  // Moves any operator placed on a dead host to the client.
  void sanitize_placement(core::Placement& placement) const;

 private:
  struct Barrier {
    int version = 0;
    core::CombinationTree new_tree;  // == current tree unless adapting order
    core::Placement new_placement;
    std::optional<int> switch_iteration;
    bool broadcast_done = false;
    // Operators that have passed their relocation check for this version;
    // the barrier retires when all have (and the release is broadcast).
    int moves_applied = 0;
    sim::SimTime initiated_at = 0;  // for the barrier-round-duration metric
  };

  struct BarrierOpState {
    int pending_version_seen = 0;       // from demands we received
    int pending_version_forwarded = 0;  // attached to demands we sent
    int moved_for_version = 0;
    int next_fetch_iteration = 0;
  };

  struct ReleaseState {
    std::unique_ptr<sim::Event> event;  // barrier release arrival
    int released_version = 0;
  };

  sim::Task<void> barrier_coordinator(int version);
  // Fault-mode release broadcast: one independent task per host, so a dead
  // host cannot stall the releases of live ones.
  sim::Task<void> release_host(net::HostId h, int version);
  // Retires the active barrier: counts it completed and observes the
  // initiated->retired round duration.
  void complete_barrier();
  net::HostId choose_repair_host(core::OperatorId op);
  void apply_repair_move(core::OperatorId op, net::HostId to);
  BarrierOpState& op_barrier(core::OperatorId op);
  ReleaseState& release_state(net::HostId h);

  sim::Simulation& sim_;
  EngineServices& services_;
  const core::CombinationTree& tree_;
  RunStats& stats_;
  PolicyTraits traits_;

  // Routing truth: plans by starting iteration, plus physical locations.
  // Deque, not vector: processes hold references to an epoch's tree across
  // suspension points, and deque::push_back never invalidates references
  // to existing elements.
  std::deque<PlanEpoch> epochs_;
  std::vector<net::HostId> actual_location_;
  std::vector<BarrierOpState> op_state_;
  std::vector<ReleaseState> release_;
  std::unique_ptr<sim::Mailbox<BarrierReport>> client_control_;

  std::optional<Barrier> active_barrier_;
  int next_version_ = 1;
  bool repair_in_progress_ = false;

  // Observability (pointers null when metrics are detached).
  obs::Obs obs_;
  obs::Counter* relocations_counter_ = nullptr;
  obs::Counter* replans_counter_ = nullptr;
  obs::Counter* barriers_initiated_counter_ = nullptr;
  obs::Counter* barriers_completed_counter_ = nullptr;
  obs::Counter* recovery_replans_counter_ = nullptr;  // lazy: fault runs only
  obs::Histogram* barrier_round_seconds_ = nullptr;
};

}  // namespace wadc::dataflow
