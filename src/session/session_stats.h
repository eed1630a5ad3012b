// Result types for one multi-session run: per-session records and the
// aggregate metrics the client-scaling and capacity figures are built from.
//
// Split from session_manager.h so consumers that only read results — the
// experiment exporters, benches — do not pull in the runtime.
//
// The aggregation pipeline is O(1) per event: add() folds each finished
// session into running accumulators (sums, extrema, outcome tallies) as it
// completes, so thousand-session capacity ramps pay constant bookkeeping
// per session instead of re-scanning (or deep-copying engine statistics
// for) the whole history. Records are deliberately lean — scalars only,
// never the engine's per-image vectors. The one non-constant piece is the
// exact p95, which keeps one double per completed session and does a
// single partial sort when asked.
#pragma once

#include <string>
#include <vector>

#include "sim/types.h"

namespace wadc::session {

// How a session's story ended (the admission outcome taxonomy of
// session/overload.h, collapsed to what the record keeps).
//
//   completed — admitted (possibly after deferral) and ran to completion;
//   aborted   — admitted but its engine aborted (permanent fault);
//   shed      — rejected by admission; never ran.
struct SessionRecord {
  int id = 0;
  // Stable spec-level id for explicit arrivals (session ... id=N); equals
  // `id` for generated arrivals.
  int spec_id = 0;
  // Closed-loop client that issued this session; -1 for open-loop and
  // explicit arrivals.
  int client = -1;

  sim::SimTime arrival_seconds = 0;  // when the session arrived
  sim::SimTime admit_seconds = 0;    // when admission let it start
  sim::SimTime end_seconds = 0;      // when its engine reported done
  bool completed = false;
  bool shed = false;       // rejected by admission; never ran
  bool deferred = false;   // spent time in the admission queue
  int images = 0;  // partitions delivered to this session's client
  int relocations = 0;  // operator moves performed by this session's engine

  // Deadline-aware admission evidence: the session's deadline (0 = none)
  // and the controller's predicted response at decision time (< 0 = no
  // prediction was made).
  double deadline_seconds = 0;
  double predicted_response_seconds = -1;

  double queue_seconds() const { return admit_seconds - arrival_seconds; }
  double response_seconds() const { return end_seconds - arrival_seconds; }
  // Images per second over the session's response time (the x_i the
  // fairness index is computed over).
  double throughput() const {
    return response_seconds() > 0 ? images / response_seconds() : 0.0;
  }
};

class SessionStats {
 public:
  // Folds one finished session into the aggregates — O(1) (plus one stored
  // double per completed session for the exact percentile). The manager
  // calls this the moment each session finishes or is shed.
  void add(const SessionRecord& record);

  const std::vector<SessionRecord>& sessions() const { return sessions_; }
  int total_count() const { return static_cast<int>(sessions_.size()); }

  // Last session end time (== total simulated time the workload occupied).
  sim::SimTime makespan_seconds() const { return makespan_seconds_; }

  // ---- outcome tallies --------------------------------------------------
  int completed_count() const { return completed_; }
  int admitted_count() const { return admitted_; }
  int shed_count() const { return shed_; }
  int deferred_count() const { return deferred_; }
  // Fraction of all sessions rejected by admission (0 when none arrived).
  double shed_fraction() const;

  // ---- aggregates over completed sessions (0 when none completed) -------
  double mean_response_seconds() const;
  double p95_response_seconds() const;
  // Queue aggregates cover admitted sessions only (a shed session never
  // queues; counting its zero wait would flatter the policy that shed it).
  double mean_queue_seconds() const;
  double max_queue_seconds() const { return queue_max_; }

  // Jain's fairness index over per-session throughput of admitted sessions
  // that completed, (sum x)^2 / (n * sum x^2): 1 when every admitted
  // session got equal service, 1/n when one got everything. 1 when nothing
  // completed. Shed sessions are excluded — fairness measures how the
  // service divided itself among the sessions it accepted.
  double jain_fairness() const;

  // Total images delivered across all sessions per second of makespan.
  double aggregate_throughput() const;

  // Completed (admitted, non-aborted) sessions per hour of makespan — the
  // capacity harness's goodput axis.
  double goodput_per_hour() const;

  // Non-default transport backend the run executed on ("tcp"), empty for
  // the simulated default. Exporters only label non-empty values, so
  // sim-mode session artifacts are unchanged.
  std::string backend;

  // Total bytes the shared network delivered over the whole run — the
  // bytes-shipped axis of the cache-reuse figure (a cache hit served from a
  // nearby replica moves fewer bytes than recomputing the subtree).
  double network_bytes_delivered = 0;

 private:
  std::vector<SessionRecord> sessions_;
  sim::SimTime makespan_seconds_ = 0;

  int completed_ = 0;
  int admitted_ = 0;
  int shed_ = 0;
  int deferred_ = 0;

  double response_sum_ = 0;       // completed sessions
  double queue_sum_ = 0;          // admitted sessions
  double queue_max_ = 0;          // admitted sessions
  double throughput_sum_ = 0;     // completed sessions
  double throughput_sum_sq_ = 0;  // completed sessions
  long long images_total_ = 0;    // all sessions

  // One double per completed session; sorted on demand for the exact p95.
  std::vector<double> responses_;
};

}  // namespace wadc::session
