#include "session/admission.h"

#include <utility>

namespace wadc::session {

AdmissionController::AdmissionController(const AdmissionParams& params,
                                         SignalsProbe probe,
                                         const ResponsePredictor* predictor)
    : params_(params), probe_(std::move(probe)), predictor_(predictor) {}

LoadSignals AdmissionController::signals() const {
  LoadSignals s = probe_ ? probe_() : LoadSignals{};
  s.running = running_;
  return s;
}

AdmissionDecision AdmissionController::request(int id,
                                               double deadline_seconds) {
  AdmissionDecision d;
  switch (params_.policy) {
    case AdmissionPolicy::kUnbounded:
      d.outcome = AdmissionOutcome::kAdmit;
      d.reason = "unbounded";
      break;
    case AdmissionPolicy::kFixedCap:
      if (running_ < params_.max_concurrent) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "cap-free";
      } else {
        d.outcome = AdmissionOutcome::kDefer;
        d.reason = "cap-full";
      }
      break;
    case AdmissionPolicy::kLoadShedding:
      if (running_ < params_.max_concurrent) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "cap-free";
      } else if (queued() < params_.max_queue) {
        d.outcome = AdmissionOutcome::kDefer;
        d.reason = "cap-full";
      } else {
        d.outcome = AdmissionOutcome::kShed;
        d.reason = "queue-full";
      }
      break;
    case AdmissionPolicy::kDeadlineAware: {
      const double deadline = deadline_seconds > 0
                                  ? deadline_seconds
                                  : params_.deadline_seconds;
      if (deadline <= 0 || predictor_ == nullptr) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "no-deadline";
        break;
      }
      const std::optional<double> predicted = predictor_->predict(signals());
      if (!predicted.has_value()) {
        // No bandwidth estimate, no prediction. An idle system admits —
        // there is nothing to contend with and the session's own traffic
        // warms the cache. A busy one sheds: admitting blind on top of
        // existing load is exactly the cold-start pileup that blows every
        // deadline at once.
        if (running_ == 0) {
          d.outcome = AdmissionOutcome::kAdmit;
          d.reason = "no-estimate";
        } else {
          d.outcome = AdmissionOutcome::kShed;
          d.reason = "no-estimate-busy";
        }
      } else if (*predicted <= deadline) {
        d.outcome = AdmissionOutcome::kAdmit;
        d.reason = "predicted-fit";
        d.predicted_response_seconds = *predicted;
      } else {
        d.outcome = AdmissionOutcome::kShed;
        d.reason = "predicted-miss";
        d.predicted_response_seconds = *predicted;
      }
      break;
    }
  }
  switch (d.outcome) {
    case AdmissionOutcome::kAdmit:
      ++running_;
      break;
    case AdmissionOutcome::kDefer:
      queue_.push_back(id);
      break;
    case AdmissionOutcome::kShed:
      break;
  }
  return d;
}

std::vector<int> AdmissionController::on_completed() {
  --running_;
  // Only cap and shed ever queue, and both start a queued session whenever
  // a slot is free.
  std::vector<int> admitted;
  while (!queue_.empty() && running_ < params_.max_concurrent) {
    admitted.push_back(queue_.front());
    queue_.pop_front();
    ++running_;
  }
  return admitted;
}

}  // namespace wadc::session
