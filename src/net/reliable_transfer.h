// Reliable transfer on top of the raw Network: per-attempt timeouts and
// capped-exponential-backoff retries with deterministic jitter.
//
// The transport layer of the engine decomposition (docs/ARCHITECTURE.md).
// Policy and protocol code never compute timeouts or backoff delays
// themselves: they describe the retry discipline once, as a RetryPolicy,
// and send through a ReliableChannel. The dataflow engine's hops and the
// monitoring subsystem's probes share this code path — the engine with
// retries enabled (fault-tolerant mode), the monitor with a plain
// fixed-timeout, no-retry policy.
//
// Determinism: the backoff jitter draws from the Rng handed in at
// construction and from nothing else, so a caller that owns the stream
// (e.g. the engine's dedicated retry stream) reproduces byte-identical
// schedules run over run.
#pragma once

#include "common/function_ref.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/task.h"

namespace wadc::net {

// The retry discipline of one channel. Timeout for a single attempt is
//   timeout_base_seconds + bytes / timeout_pessimistic_bandwidth
// (the second term is the worst-case transmission time at a pessimistic
// bandwidth floor, so an attempt that is actually moving on a live slow
// link never times out). A non-positive base disables the deadline — and
// with it, retries — entirely: this is the fault-free configuration, where
// a transfer can only complete.
struct RetryPolicy {
  double timeout_base_seconds = 0;
  // Bandwidth floor (bytes/second) for the transmission-time term of the
  // deadline; 0 means a flat deadline with no per-byte term.
  double timeout_pessimistic_bandwidth = 0;

  // Retries per send after the first attempt. Exhausting them surfaces the
  // failure to the caller.
  int max_retries = 0;

  // Backoff between attempts: min(base * 2^attempt, max), scaled by a
  // deterministic jitter factor in [0.75, 1.25).
  double backoff_base_seconds = 2;
  double backoff_max_seconds = 60;
};

class ReliableChannel {
 public:
  // Observes each retry (for stats/tracing): (from, to, attempt index,
  // the backoff the channel is about to wait). The backoff is drawn once,
  // before the listener runs, so observing a retry never consumes jitter.
  // A raw function-pointer + context pair, not a std::function: the
  // listener sits on the retry hot path, and kernel-level callbacks never
  // type-erase through a potentially allocating wrapper (see
  // docs/PERFORMANCE.md). The callables send() takes are FunctionRefs for
  // the same reason.
  struct RetryListener {
    void (*fn)(void* ctx, HostId from, HostId to, int attempt,
               double backoff_seconds) = nullptr;
    void* ctx = nullptr;
  };

  ReliableChannel(Network& network, const RetryPolicy& policy, Rng jitter_rng)
      : network_(network), policy_(policy), jitter_rng_(jitter_rng) {}

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Deadline for one attempt moving `bytes`; kNoTransferTimeout when the
  // policy disables deadlines.
  double timeout_for(double bytes) const {
    if (policy_.timeout_base_seconds <= 0) return kNoTransferTimeout;
    double t = policy_.timeout_base_seconds;
    if (policy_.timeout_pessimistic_bandwidth > 0) {
      t += bytes / policy_.timeout_pessimistic_bandwidth;
    }
    return t;
  }

  // Backoff before retry number `attempt` (0-based). Consumes one jitter
  // draw.
  double retry_backoff(int attempt);

  // One attempt with the policy deadline applied. The caller inspects the
  // outcome; nothing is retried.
  Network::TransferAwaiter transfer(HostId from, HostId to, double bytes,
                                    int priority) {
    return network_.transfer(from, to, bytes, priority, timeout_for(bytes),
                             session_tag_);
  }

  // Full reliable send: attempt, then retry with capped backoff until
  // delivered, retries are exhausted, or `cancelled` reports the caller no
  // longer wants the message. `build_bytes` is re-evaluated before every
  // attempt — piggybacked payloads may have grown during the backoff — and
  // `on_delivered` runs exactly once, before returning true. The three
  // callables are borrowed, not copied: they must outlive the co_await on
  // the returned task (lambdas written in the call's argument list do).
  sim::Task<bool> send(HostId from, HostId to, int priority,
                       FunctionRef<double()> build_bytes,
                       FunctionRef<void()> on_delivered,
                       FunctionRef<bool()> cancelled);

  void set_retry_listener(RetryListener listener) {
    retry_listener_ = listener;
  }

  // Tags every transfer this channel issues with a query-session id
  // (wadc_session). Defaults to kNoSession — untagged, byte-identical
  // behavior.
  void set_session_tag(int session) { session_tag_ = session; }
  int session_tag() const { return session_tag_; }

  Network& network() { return network_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  Network& network_;
  RetryPolicy policy_;
  Rng jitter_rng_;
  RetryListener retry_listener_;
  int session_tag_ = kNoSession;
};

}  // namespace wadc::net
