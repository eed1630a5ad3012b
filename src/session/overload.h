// Overload-control primitives for the session runtime.
//
// When arrivals outrun capacity, an admission controller needs two things
// the original policies never had: a *backpressure snapshot* describing how
// loaded the shared network currently is, and a *response predictor* that
// turns that snapshot plus the monitoring subsystem's bandwidth estimates
// into "if we admit this session now, when would it plausibly finish?".
// This header provides both, engine-free: the overload module may reason
// about the network and the bandwidth cache but never about dataflow
// internals (tools/check_layering.sh pins that edge), so controllers stay
// pure bookkeeping and unit-testable with hand-built signals.
//
// Outcome taxonomy (docs/SESSIONS.md): every arriving session ends in
// exactly one admission outcome —
//
//   admitted  — started immediately;
//   deferred  — parked in the FIFO queue behind a cap; admitted in arrival
//               order as running sessions finish;
//   shed      — rejected outright; the session never runs and its client
//               gets an immediate, explicit failure instead of an
//               unbounded queue wait.
#pragma once

#include <optional>

namespace wadc::session {

// Backpressure snapshot the SessionManager assembles for each admission
// decision: the controller's running count plus shared-network load. All
// fields derive from simulation state, so decisions stay deterministic.
struct LoadSignals {
  int running = 0;  // sessions currently admitted and not yet finished
  // Bytes committed to in-flight transfers on the shared network — the
  // aggregate backlog every new session's traffic lines up behind.
  double inflight_bytes = 0;
  // Slowest fresh client<->server bandwidth estimate from the client host's
  // BandwidthCache (B/s); nullopt when nothing fresh is cached.
  std::optional<double> client_bandwidth;
};

// Predicts the response time of a session admitted under given load, from
// the client's cached bandwidth estimates. The model is the paper's own
// contention story: the client's single NIC is the shared bottleneck, so a
// session that must pull `transfer_bytes` through it (in `messages`
// messages, each paying kMessageStartupSeconds) behind `inflight_bytes` of
// backlog, sharing with `running` other sessions, takes roughly
//
//   predict = inflight_bytes / bw              (drain the backlog)
//           + (running + 1) *                  (processor-share the NIC)
//             (messages * startup + transfer_bytes / bw)
//
// No fresh bandwidth measurement means no prediction (nullopt): absence of
// evidence is not evidence of congestion.
class ResponsePredictor {
 public:
  ResponsePredictor(double transfer_bytes, int messages)
      : transfer_bytes_(transfer_bytes), messages_(messages) {}

  double transfer_bytes() const { return transfer_bytes_; }

  // Unloaded service time at bandwidth `bw` (idle network, one session).
  double service_seconds(double bw) const;

  std::optional<double> predict(const LoadSignals& signals) const;

 private:
  double transfer_bytes_;
  int messages_;
};

}  // namespace wadc::session
