#include "session/overload.h"

#include "common/model_constants.h"

namespace wadc::session {

double ResponsePredictor::service_seconds(double bw) const {
  if (!(bw > 0)) return 0;
  return messages_ * kMessageStartupSeconds + transfer_bytes_ / bw;
}

std::optional<double> ResponsePredictor::predict(
    const LoadSignals& signals) const {
  if (!signals.client_bandwidth.has_value()) return std::nullopt;
  const double bw = *signals.client_bandwidth;
  if (!(bw > 0)) return std::nullopt;
  const double backlog = signals.inflight_bytes / bw;
  return backlog + (signals.running + 1) * service_seconds(bw);
}

}  // namespace wadc::session
