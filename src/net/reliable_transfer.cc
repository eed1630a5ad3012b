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

bool ReliableChannel::SendAwaiter::start(sim::Continuation done) {
  done_ = done;
  attempt_ = 0;
  delivered_ = false;
  return attempt();
}

bool ReliableChannel::SendAwaiter::attempt() {
  const double bytes = hooks_.build_bytes(hooks_.ctx);
  transfer_.rearm(from_, to_, bytes, channel_.timeout_for(bytes));
  if (!transfer_.start(
          sim::Continuation::member<SendAwaiter, &SendAwaiter::on_transfer>(
              this))) {
    return false;
  }
  return settle();
}

bool ReliableChannel::SendAwaiter::settle() {
  if (transfer_.record().ok()) {
    delivered_ = true;
    hooks_.on_delivered(hooks_.ctx);
    return true;
  }
  if (attempt_ >= channel_.policy_.max_retries ||
      hooks_.cancelled(hooks_.ctx)) {
    return true;
  }
  const double backoff = channel_.retry_backoff(attempt_);
  const RetryListener& listener = channel_.retry_listener_;
  if (listener.fn != nullptr) {
    listener.fn(listener.ctx, from_, to_, attempt_, backoff);
  }
  auto retry = [this] {
    ++attempt_;
    if (attempt()) done_();
  };
  static_assert(sim::Callback::fits_inline<decltype(retry)>(),
                "retry thunks must stay allocation-free");
  channel_.network_.simulation().schedule_in(backoff, retry);
  return false;
}

void ReliableChannel::SendAwaiter::on_transfer() {
  // The caller may destroy this awaiter as soon as done_ runs.
  if (settle()) done_();
}

}  // namespace wadc::net
