// The multi-client session runtime.
//
// A SessionManager launches N concurrent query sessions — each an
// independent dataflow::Engine started in detached mode — over ONE shared
// net::Network, ONE sim::Simulation, and ONE monitoring subsystem. All
// sessions read the same servers and deliver to the same client host, so
// they contend for the single-NIC endpoints and wide-area links exactly the
// way concurrent transfers inside one session already do; the contention
// model is purely network-side (each engine's operators compute on their
// own resources — sessions are independent queries, not threads of one).
//
// Arrivals come from a SessionSpec (explicit times, a seeded open-loop
// Poisson process, or a closed loop of clients with think times); an
// AdmissionController decides the fate of each arrival — admit, defer, or
// shed (session/admission.h). The manager supplies the controller's
// backpressure snapshot (aggregate in-flight transport bytes and the
// measured client-link bandwidth) and a ResponsePredictor sized from the
// workload, records every decision with its reason in the DecisionLog, and
// bumps the per-outcome counters session.{arrivals,admitted,deferred,shed,
// completed}. Every engine is seeded from a per-session fork of the manager
// seed and tagged with its session id, so shared-network traces and metrics
// attribute per-session traffic, and the whole run is deterministic: same
// spec, same seed, same output, whatever the interleaving.
//
// A shed session never runs: it is finalized at arrival time with
// record.shed set; its response metrics are excluded from the aggregates
// (SessionStats). Session records keep only scalars (never the engine's
// per-image vectors), so thousand-session capacity ramps pay O(1)
// bookkeeping per completion.
//
// Fault injection composes with the session runtime: when `engine_base`
// carries a fault injector, every admitted engine registers its own fault
// listener at construction (the injector mutates the shared network once
// per event; listeners added later simply observe later events). Because
// detached engines have no per-run deadline, fault schedules under the
// session runtime should be transient (crash + restart) — a permanent
// client/server crash aborts the affected sessions via the usual
// surfacing path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/combination_tree.h"
#include "dataflow/engine.h"
#include "dataflow/engine_params.h"
#include "monitor/monitoring_system.h"
#include "net/network.h"
#include "obs/obs.h"
#include "session/admission.h"
#include "session/overload.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "sim/simulation.h"
#include "workload/image_workload.h"

namespace wadc::session {

class SessionManager {
 public:
  // `engine_base` configures every session's engine; the manager overrides
  // seed (per-session fork of `seed`) and session_id. The manager must
  // outlive nothing: destroy it before the simulation, network, monitoring,
  // tree, and workload it references (the usual stack order works).
  SessionManager(sim::Simulation& sim, net::Network& network,
                 monitor::MonitoringSystem& monitoring,
                 const core::CombinationTree& tree,
                 const workload::ImageWorkload& workload,
                 const dataflow::EngineParams& engine_base,
                 const SessionSpec& spec, std::uint64_t seed);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Runs every session to completion (or rejection) and returns the
  // aggregate statistics. Call at most once.
  SessionStats run();

  // ---- read-only state probes (the exp-layer timeline sampler) ----
  int total_sessions() const { return total_; }
  int known_sessions() const { return static_cast<int>(sessions_.size()); }
  int queued_sessions() const { return admission_.queued(); }
  bool all_finished() const { return finished_ == total_; }
  // Lifecycle state of a known session:
  // "queued" | "running" | "done" | "shed".
  const char* session_state(int id) const;
  // Images delivered so far (in-progress engines report live counts).
  int session_images(int id) const;

 private:
  struct Session {
    SessionRecord record;
    std::unique_ptr<dataflow::Engine> engine;  // null while queued or shed
    bool done = false;
  };

  void schedule_arrivals();
  // An arrival fires: assign the next session id and ask admission.
  // `spec_id` is the explicit-arrival id (-1 = use the session id);
  // `deadline_seconds` the per-session deadline (0 = policy default).
  void begin_session(int client, int spec_id, double deadline_seconds);
  void admit(int id, const char* reason, double predicted_seconds);
  // Finalizes a session that will never run (shed at arrival).
  void finish_without_running(int id);
  void on_session_done(int id);
  // Closed loop: the issuing client thinks, then issues its next query.
  void maybe_issue_next_query(int client);
  // The controller's backpressure snapshot (network-side fields).
  LoadSignals load_signals() const;
  // Slowest fresh client<->server bandwidth from the client's cache (the
  // combination barrier advances at the pace of the slowest pair).
  std::optional<double> client_link_bandwidth() const;
  std::uint64_t session_seed(int id) const;
  void trace_session_event(const char* name, int id);

  sim::Simulation& sim_;
  net::Network& network_;
  monitor::MonitoringSystem& monitoring_;
  const core::CombinationTree& tree_;
  const workload::ImageWorkload& workload_;
  dataflow::EngineParams engine_base_;
  SessionSpec spec_;
  std::uint64_t seed_;

  ResponsePredictor predictor_;
  AdmissionController admission_;
  std::vector<Session> sessions_;
  // Closed loop: queries each client still has to issue after the current
  // one.
  std::vector<int> remaining_queries_;
  int total_ = 0;
  int finished_ = 0;
  bool ran_ = false;

  // Observability (== engine_base.obs; pointers null when detached).
  obs::Obs obs_;
  obs::Counter* arrivals_counter_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* deferred_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Histogram* queue_seconds_hist_ = nullptr;
  obs::Histogram* response_seconds_hist_ = nullptr;
};

}  // namespace wadc::session
