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

#include <coroutine>

#include "common/rng.h"
#include "net/network.h"
#include "sim/continuation.h"

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
  // docs/PERFORMANCE.md). A send's Hooks follow the same rule.
  struct RetryListener {
    void (*fn)(void* ctx, HostId from, HostId to, int attempt,
               double backoff_seconds) = nullptr;
    void* ctx = nullptr;
  };

  // What a send asks of the message it carries, over one context (for the
  // engine, the hop awaiter that holds the send):
  //   - build_bytes: the message's size, re-evaluated before every attempt
  //     (piggybacked payloads may have grown during the backoff);
  //   - on_delivered: runs exactly once, when an attempt delivers, before
  //     the send reports completion;
  //   - cancelled: asked after a failed attempt; true gives up at once,
  //     without backing off.
  struct Hooks {
    double (*build_bytes)(void* ctx);
    void (*on_delivered)(void* ctx);
    bool (*cancelled)(void* ctx);
    void* ctx;
  };

  // The awaitable send() returns: attempt, then retry with capped backoff
  // until delivered, retries are exhausted, or the message is cancelled.
  // It lives in the caller's frame — the network and the event queue point
  // at it — so it can be neither copied nor moved, and a retry costs one
  // backoff event and no frame. `co_await` yields true once delivered; a
  // local send (from == to) delivers at once, with no event.
  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(const SendAwaiter&) = delete;
    SendAwaiter& operator=(const SendAwaiter&) = delete;

    bool await_ready() const { return false; }
    bool await_suspend(std::coroutine_handle<> waiter) {
      return !start(sim::Continuation::resume(waiter));
    }
    bool await_resume() const { return delivered_; }

    // Drives the send from an awaiter layered above instead of a
    // coroutine. Returns true if it finished at once (a local send);
    // otherwise `done` runs when it finishes, inside the event of the last
    // attempt's resolution.
    bool start(sim::Continuation done);
    // Re-targets a finished send for the next hop of the same message.
    void rearm(HostId from, HostId to) {
      from_ = from;
      to_ = to;
    }
    bool delivered() const { return delivered_; }

   private:
    friend class ReliableChannel;
    SendAwaiter(ReliableChannel& channel, HostId from, HostId to,
                int priority, Hooks hooks)
        : channel_(channel),
          hooks_(hooks),
          transfer_(channel.network_.transfer(from, to, 0, priority,
                                              kNoTransferTimeout,
                                              channel.session_tag_)),
          from_(from),
          to_(to) {}

    // Starts attempt number attempt_: true if the send finished at once.
    bool attempt();
    // Handles a resolved attempt: true if the send is over, false if a
    // retry was scheduled.
    bool settle();
    // The transfer's completion target.
    void on_transfer();

    ReliableChannel& channel_;
    Hooks hooks_;
    Network::TransferAwaiter transfer_;
    sim::Continuation done_;
    HostId from_;
    HostId to_;
    int attempt_ = 0;
    bool delivered_ = false;
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

  // Full reliable send of the message `hooks` describes (see SendAwaiter).
  SendAwaiter send(HostId from, HostId to, int priority, Hooks hooks) {
    return SendAwaiter(*this, from, to, priority, hooks);
  }

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
