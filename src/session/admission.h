// Admission control for concurrent query sessions.
//
// The controller decides, for each arriving session, one of three outcomes
// (the overload taxonomy of session/overload.h): admit now, defer to the
// FIFO queue, or shed outright. Four policies (session_spec.h):
//
//   unbounded  — every session starts on arrival;
//   cap N      — at most N sessions run concurrently; arrivals beyond the
//                cap queue and start, in arrival order, as runners finish;
//   shed M Q   — load shedding: at most M running, at most Q queued behind
//                them; an arrival that fits neither is shed — an explicit,
//                immediate rejection instead of an unbounded queue;
//   deadline D — deadline-aware: the controller predicts the session's
//                response time from the backpressure snapshot (see
//                ResponsePredictor) and sheds it when the prediction
//                exceeds its deadline (per-session, default D). With no
//                fresh bandwidth estimate there is no prediction: an idle
//                system admits (nothing to contend with, and the session's
//                own traffic warms the bandwidth cache), a busy one sheds —
//                admitting blind into existing load is how cold-start
//                pileups blow every deadline at once.
//
// The controller is pure bookkeeping — it never touches the simulation. The
// SessionManager drives it from arrival events and session-completion
// callbacks, and supplies the backpressure snapshot through the signals
// probe.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "session/overload.h"
#include "session/session_spec.h"

namespace wadc::session {

// What the controller decided for one arriving session.
enum class AdmissionOutcome {
  kAdmit,  // start now
  kDefer,  // park in the FIFO queue
  kShed,   // reject outright; the session never runs
};

struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmit;
  // Static-string rationale for the DecisionLog ("unbounded", "cap-free",
  // "queue-full", "predicted-miss", ...).
  const char* reason = "";
  // Predicted response time behind the decision; < 0 when no prediction
  // was made (non-deadline policies, or no bandwidth estimate).
  double predicted_response_seconds = -1;
};

class AdmissionController {
 public:
  // Returns the current backpressure snapshot (running is filled in by the
  // controller itself; the probe supplies the network-side fields).
  using SignalsProbe = std::function<LoadSignals()>;

  // `predictor` is consulted by the deadline policy only; may be null (no
  // prediction ever made, everything admitted).
  AdmissionController(const AdmissionParams& params, SignalsProbe probe,
                      const ResponsePredictor* predictor = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // An arriving session asks to start. `deadline_seconds` is the session's
  // own deadline (0 = the policy default). kAdmit counts the session as
  // running; kDefer queues it (it comes back from on_completed); kShed
  // drops it — the controller forgets it immediately.
  AdmissionDecision request(int id, double deadline_seconds = 0);

  // A running session finished. Returns the queued sessions admitted now,
  // in arrival order (each counted as running again).
  std::vector<int> on_completed();

  int running() const { return running_; }
  int queued() const { return static_cast<int>(queue_.size()); }

 private:
  // The backpressure snapshot as the controller would assemble it now
  // (probe fields plus its own running count).
  LoadSignals signals() const;

  AdmissionParams params_;
  SignalsProbe probe_;
  const ResponsePredictor* predictor_;
  int running_ = 0;
  std::deque<int> queue_;  // deferred session ids, in arrival order
};

}  // namespace wadc::session
