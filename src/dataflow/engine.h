// The demand-driven, relocatable dataflow engine.
//
// This is the system under study: servers at the leaves, combination
// operators at internal nodes, the client at the root (§2). Since the
// layer split (docs/ARCHITECTURE.md) the engine itself owns only the
// dataflow protocol — demand-driven pipelining (every node holds one
// output partition, dispatches it when its consumer asks, requests new
// inputs only after dispatching, and prefetches one partition ahead),
// message routing with stale-location forwarding, and fault surfacing.
// Everything else is layered around it:
//
//   - transport (net::ReliableChannel): per-hop timeouts and
//     capped-backoff retries for every message the engine sends;
//   - adaptation policy (dataflow::AdaptationPolicy): one strategy per
//     AlgorithmKind — start-up planning (§2.1), periodic replanning
//     decisions (§2.2), and the local algorithm's epoch actions (§2.3).
//     The engine never branches on AlgorithmKind; it caches the policy's
//     traits and calls its hooks;
//   - change-over (dataflow::ChangeOverCoordinator): plan epochs, operator
//     locations, the §2.2 barrier protocol, light-move relocation (§2),
//     and fault-repair relocation.
//
// Policies and the coordinator reach back into the engine only through the
// EngineServices interface (engine_services.h), which the engine
// implements privately.
//
// The engine's RunStats expose completion time, per-image arrival times and
// adaptation counters; the experiment harness builds every figure of the
// paper from them.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_key.h"
#include "cache/fabric.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/operator_directory.h"
#include "dataflow/adaptation_policy.h"
#include "dataflow/change_over.h"
#include "dataflow/engine_messaging.h"
#include "dataflow/engine_params.h"
#include "dataflow/engine_services.h"
#include "dataflow/messages.h"
#include "dataflow/run_stats.h"
#include "fault/injector.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "net/reliable_transfer.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "workload/image_workload.h"

namespace wadc::dataflow {

class Engine : private EngineServices {
 public:
  Engine(sim::Simulation& sim, net::Network& network,
         monitor::MonitoringSystem& monitoring,
         const core::CombinationTree& tree,
         const workload::ImageWorkload& workload, const EngineParams& params);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs the computation to completion (all partitions delivered to the
  // client) and returns the statistics.
  RunStats run();

  // Multi-session mode (wadc_session): spawns the engine's processes into
  // the shared simulation and returns immediately; the caller (the session
  // runtime) drives the event loop. `on_done` fires exactly once, when the
  // computation completes or aborts — the engine never stops the shared
  // loop. stats() is final (completed flag and failure summary populated)
  // by the time on_done runs. Mutually exclusive with run().
  void start_detached(std::function<void()> on_done);

  // The plan in effect for a given iteration (start-up plan, or the result
  // of completed change-overs). Every iteration executes entirely under one
  // (tree, placement) epoch; the order-adaptive extension switches both
  // atomically at the change-over barrier.
  const core::Placement& placement_for(int iteration) const {
    return coordinator_.placement_for(iteration);
  }
  const core::CombinationTree& tree_for(int iteration) const {
    return coordinator_.tree_for(iteration);
  }
  // Where each operator physically is right now.
  net::HostId operator_location(core::OperatorId op) const override {
    return coordinator_.operator_location(op);
  }

  const RunStats& stats() const { return stats_; }

  // True once the computation has completed or aborted. Read-only state
  // probes (the exp-layer timeline sampler) use this as their stop
  // predicate so they stop self-rescheduling and let the event queue drain.
  bool run_finished() const { return done_ || aborted_; }

 private:
  // ---- per-entity state ------------------------------------------------
  struct OperatorState {
    std::unique_ptr<sim::Mailbox<Demand>> demands;
    std::unique_ptr<sim::Mailbox<DataMessage>> data;
    // Across an order-changing change-over the operator's consumer differs
    // between epochs, so a demand for iteration M (new consumer) can arrive
    // before the demand for M-1 (old consumer). Demands are consumed in
    // iteration order through this stash.
    std::map<int, Demand> demand_stash;
    // Later-producer bookkeeping (§2.3), consumed by the local policy.
    CriticalPathState critical;
  };

  struct ServerState {
    std::unique_ptr<sim::Mailbox<Demand>> demands;
    std::unique_ptr<sim::Resource> disk;
    int pending_version_seen = 0;
  };

  struct HostState {
    std::unique_ptr<core::OperatorDirectory> directory;  // local algorithm
    std::unique_ptr<sim::Resource> cpu;
  };

  // ---- processes ---------------------------------------------------------
  sim::Task<void> orchestrate();  // start-up planning, install, spawn actors
  sim::Task<void> client_process();
  sim::Task<void> server_process(int server);
  sim::Task<void> operator_process(core::OperatorId op);

  // ---- operator protocol pieces ----------------------------------------
  sim::Task<workload::ImageSpec> fetch_and_compose(core::OperatorId op,
                                                   int iteration);
  sim::Task<void> dispatch(core::OperatorId op, int iteration,
                           const workload::ImageSpec& image);

  // ---- result cache (active only when params_.cache_fabric is set) ------
  // Content-addressed key for the result of subtree `c` at `iteration`
  // (canonical hash over its sorted leaf ids + operator tag + the lineage
  // digest the subtree must produce; see cache/cache_key.h). Collects the
  // leaves into key_leaves_.
  cache::CacheKey subtree_cache_key(const core::CombinationTree& tree,
                                    const core::Child& c, int iteration);
  // Fetches a cached result toward `requester` from the nearest live
  // replica (instant when local). nullopt on miss or failed fetch — the
  // caller then takes the normal recompute path; nothing was pruned yet.
  sim::Task<std::optional<workload::ImageSpec>> try_cache_fetch(
      cache::CacheKey key, net::HostId requester);
  // Tells both children of `op` to skip `iteration` (their consumer was
  // served from the cache); carries the barrier piggyback like any demand.
  sim::Task<void> send_prunes_to_children(core::OperatorId op, int iteration);
  // Receives the demand for exactly `iteration`, stashing any that arrive
  // out of order (possible only across order-changing change-overs).
  sim::Task<Demand> receive_demand_for(core::OperatorId op, int iteration);

  // ---- failure surfacing -------------------------------------------------
  // Synchronous fault notification (runs inside the injector's event).
  void on_fault_event(const fault::FaultEvent& ev);
  void abort_run(std::string reason);
  void note_retry(net::HostId from, net::HostId to, int attempt,
                  double backoff_seconds);

  // Detached-mode completion: finalizes stats and fires on_done_ once.
  void finish_detached();

  // ---- messaging ---------------------------------------------------------
  // The message path allocates no coroutine frame: a message travels from
  // the sending actor to the receiver's mailbox through these awaiters,
  // which live in the sender's frame (private to the engine's sources:
  // engine_awaiters.h, bodies in engine_messaging.cc).
  class Hop;    // one physical hop with piggyback, through channel_
  class Route;  // a Hop re-armed for each leg of a MessageRouter chase
  template <typename Msg>
  class Post;  // a Route that posts into the receiver's mailbox
  // Sends a demand from operator `from_op` to its child; co_await yields
  // false if it did not arrive (fault mode only).
  Post<Demand> send_demand_to_child(core::OperatorId from_op,
                                    const core::Child& child,
                                    const Demand& demand);
  // Sends a producer's output to its consumer for message.iteration.
  Post<DataMessage> send_data_to_consumer(core::OperatorId producer,
                                          const DataMessage& message);

  // ---- helpers -----------------------------------------------------------
  OperatorState& op_state(core::OperatorId op);
  HostState& host_state(net::HostId h);
  // Which input side (0 = left, 1 = right) an entity feeds under a tree.
  static int operator_side(const core::CombinationTree& tree,
                           core::OperatorId op);
  static int server_side(const core::CombinationTree& tree, int server);
  double directory_bytes() const;

  // ---- EngineServices (the seam policies and the coordinator act on) -----
  sim::Simulation& simulation() override { return sim_; }
  const EngineParams& params() const override { return params_; }
  const core::CombinationTree& base_tree() const override { return tree_; }
  const core::CostModel& cost_model() const override { return cost_model_; }
  int total_iterations() const override { return workload_.iterations(); }
  bool faults_active() const override { return faults_active_; }
  bool finished() const override { return done_; }
  bool stopping() const override { return done_ || aborted_; }
  bool host_alive(net::HostId h) const override {
    return network_.host_alive(h);
  }
  const net::LinkTable& links() const override { return network_.links(); }
  Rng& rng() override { return rng_; }
  // One physical hop with monitoring piggyback (and, for directory-based
  // routing, directory propagation): a Hop awaited for the coordinator and
  // the policies, whose control messages come tens per run. The engine's
  // own messages await Hop, Route and Post directly.
  sim::Task<bool> hop(net::HostId from, net::HostId to, double bytes,
                      int priority) override;
  double retry_backoff(int attempt) override {
    return channel_.retry_backoff(attempt);
  }
  monitor::BandwidthCache& bandwidth_cache(net::HostId h) override {
    return monitoring_.cache(h);
  }
  bool probing_enabled() const override {
    return monitoring_.params().probing_enabled;
  }
  sim::Task<std::optional<double>> fetch_bandwidth(net::HostId requester,
                                                   net::HostId a,
                                                   net::HostId b) override {
    return monitoring_.fetch_bandwidth(requester, a, b);
  }
  const core::CombinationTree& current_tree() const override {
    return coordinator_.current_epoch().tree;
  }
  const core::Placement& current_placement() const override {
    return coordinator_.current_epoch().placement;
  }
  core::OperatorDirectory& directory(net::HostId h) override {
    return *host_state(h).directory;
  }
  CriticalPathState& critical_path_state(core::OperatorId op) override {
    return op_state(op).critical;
  }
  int client_next_iteration() const override { return client_next_iteration_; }
  int max_server_iteration() const override { return max_server_iteration_; }
  sim::Task<void> relocate_operator(core::OperatorId op,
                                    net::HostId to) override {
    return coordinator_.relocate(op, to);
  }
  RunStats& stats() override { return stats_; }
  const obs::Obs& observability() const override { return obs_; }

  sim::Simulation& sim_;
  net::Network& network_;
  monitor::MonitoringSystem& monitoring_;
  const core::CombinationTree& tree_;
  const workload::ImageWorkload& workload_;
  EngineParams params_;

  core::CostModel cost_model_;
  Rng rng_;
  // Transport layer: per-hop timeouts and capped-backoff retries. Its
  // jitter draws from a separate stream so fault-free runs (which never
  // draw from it) keep identical rng_ sequences.
  net::ReliableChannel channel_;
  // Shared result-cache fabric; null = caching disabled (byte-identical
  // baseline). See engine_params.h.
  cache::CacheFabric* cache_ = nullptr;
  std::vector<int> key_leaves_;  // subtree_cache_key's buffer, reused
  bool faults_active_ = false;
  bool aborted_ = false;

  // Detached (multi-session) mode: completion fires on_done_ instead of
  // stopping the shared simulation loop.
  bool detached_ = false;
  bool done_reported_ = false;
  std::function<void()> on_done_;

  // Observability (== params_.obs; pointers null when detached).
  obs::Obs obs_;
  obs::Counter* forwards_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;  // lazy: fault runs only

  std::vector<OperatorState> operators_;
  std::vector<ServerState> servers_;
  std::vector<HostState> hosts_;
  std::unique_ptr<sim::Mailbox<DataMessage>> client_data_;

  int client_next_iteration_ = 0;
  // Highest iteration any server has been asked for; servers run ahead of
  // the client by up to the pipeline depth, and a change-over can only be
  // initiated while every server still has demands left to carry the
  // pending version (otherwise it can never report).
  int max_server_iteration_ = 0;
  bool done_ = false;

  RunStats stats_;

  // Adaptation policy for params_.algorithm, plus its cached traits: the
  // registry call in the constructor is the only AlgorithmKind dispatch.
  std::unique_ptr<AdaptationPolicy> policy_;
  bool uses_directory_ = false;
  bool uses_barrier_ = false;
  bool adapts_order_ = false;
  bool acts_in_window_ = false;
  ChangeOverCoordinator coordinator_;
  // Routing sublayer; acts on the engine only through EngineServices plus
  // the epoch-placement lookup (constructed after coordinator_, which that
  // lookup reads).
  MessageRouter router_;
};

}  // namespace wadc::dataflow
