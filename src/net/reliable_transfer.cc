#include "net/reliable_transfer.h"

#include <algorithm>

namespace wadc::net {

double ReliableChannel::retry_backoff(int attempt) {
  double delay = policy_.backoff_base_seconds;
  for (int i = 0;
       i < attempt && delay < policy_.backoff_max_seconds; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, policy_.backoff_max_seconds);
  // Deterministic jitter in [0.75, 1.25) de-synchronizes retry storms.
  return delay * (0.75 + 0.5 * jitter_rng_.next_double());
}

sim::Task<bool> ReliableChannel::send(HostId from, HostId to, int priority,
                                      FunctionRef<double()> build_bytes,
                                      FunctionRef<void()> on_delivered,
                                      FunctionRef<bool()> cancelled) {
  for (int attempt = 0;; ++attempt) {
    const double bytes = build_bytes();
    const auto rec = co_await transfer(from, to, bytes, priority);
    if (rec.ok()) {
      on_delivered();
      co_return true;
    }
    if (attempt >= policy_.max_retries || cancelled()) co_return false;
    const double backoff = retry_backoff(attempt);
    if (retry_listener_.fn != nullptr) {
      retry_listener_.fn(retry_listener_.ctx, from, to, attempt, backoff);
    }
    co_await network_.simulation().delay(backoff);
  }
}

}  // namespace wadc::net
