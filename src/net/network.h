// Wide-area network transport model.
//
// Models the paper's network assumptions (§2, §4):
//   - every host has a single network interface: it can send or receive at
//     most one message at a time. A transfer therefore occupies *both*
//     endpoints for its whole duration (end-point congestion);
//   - each message pays a fixed startup cost (50 ms in the experiments)
//     before bytes flow;
//   - transmission time is governed by the link's bandwidth trace, with
//     bandwidth changes mid-transfer honored exactly;
//   - queued messages start in priority order (FIFO within a priority), so
//     barrier messages overtake queued data messages (§2.2). Transfers in
//     progress are never preempted.
//
// Fault extensions (beyond the paper, which assumes reliable hosts/links):
//   - hosts can be marked dead (crash) and alive again (restart); links can
//     enter blackout windows. Transfers touching a dead host or blacked-out
//     link fail; queued transfers wait until conditions clear or they time
//     out;
//   - callers may pass a timeout: a transfer that has neither completed nor
//     failed by its deadline ends with TransferOutcome::kTimedOut;
//   - an optional per-transfer drop probability models silent message loss
//     (the transfer occupies its endpoints for the full duration, then fails
//     at delivery time — the receiver never sees it).
//
// Completed transfers are reported to registered observers; the passive
// bandwidth monitor (§4) is implemented as such an observer. Failed and
// timed-out transfers are reported too, with outcome set accordingly.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/link_table.h"
#include "net/transport.h"
#include "net/types.h"
#include "obs/obs.h"
#include "sim/simulation.h"

namespace wadc::net {

struct NetworkParams {
  // Per-message startup cost in seconds (paper: 50 ms). Charged while both
  // endpoints are held, before transmission begins.
  double startup_seconds = 0.05;

  // Concurrent transfers a host can sustain. The paper assumes a single
  // network interface ("servers ... can send or receive at most one message
  // at a time", §2) = capacity 1; it also notes the assumption can be
  // relaxed — raising this is the relaxation (see the endpoint-congestion
  // ablation bench).
  int host_capacity = 1;

  // Returns an empty string if the parameters are usable, otherwise a
  // human-readable description of the first problem found.
  std::string validate() const;
};

// Priorities for transfer scheduling. Only the order matters.
inline constexpr int kDataPriority = 0;
inline constexpr int kControlPriority = 10;  // barrier & placement control

// How a transfer ended.
enum class TransferOutcome {
  kCompleted,  // bytes delivered
  kFailed,     // an endpoint died or the link blacked out mid-flight
  kTimedOut,   // caller-supplied deadline passed first
};

const char* transfer_outcome_name(TransferOutcome outcome);

// Passed as `timeout_seconds` to disable the deadline.
inline constexpr double kNoTransferTimeout = sim::kTimeInfinity;

// Session tag for transfers that do not belong to a query session (the
// single-session engine, probes, control infrastructure).
inline constexpr int kNoSession = -1;

struct TransferRecord {
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  double bytes = 0;
  int priority = kDataPriority;
  // Query session that issued the transfer (wadc_session), or kNoSession.
  // Tagged transfers carry the session id into traces and per-session byte
  // counters; untagged runs produce byte-identical output to pre-session
  // builds.
  int session = kNoSession;
  sim::SimTime requested = 0;  // when transfer() was called
  sim::SimTime started = 0;    // when both endpoints were acquired
  sim::SimTime completed = 0;  // delivery (or failure/timeout) time
  TransferOutcome outcome = TransferOutcome::kCompleted;

  bool ok() const { return outcome == TransferOutcome::kCompleted; }

  // Application-level bandwidth as an endpoint would measure it (includes
  // the startup cost, like the paper's 16KB round-trip probes). Zero for
  // failed or timed-out transfers — no delivery, no sample.
  double app_bandwidth() const {
    if (!ok()) return 0.0;
    return completed > started ? bytes / (completed - started) : 0.0;
  }
  sim::SimTime queue_wait() const { return started - requested; }
};

class Network {
 public:
  // Completion observers run for every resolved transfer — one of the
  // hottest fan-out points in the kernel — so they are a raw function
  // pointer + context pair, not a std::function (same policy as the event
  // queue's sim::Callback and ReliableChannel's retry listener).
  struct TransferObserver {
    void (*fn)(void* ctx, const TransferRecord& record) = nullptr;
    void* ctx = nullptr;
  };

  Network(sim::Simulation& sim, const LinkTable& links,
          const NetworkParams& params = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The awaitable transfer() returns. It lives in the awaiting coroutine's
  // frame for the whole transfer — the network's queue entries point at
  // it — so a transfer costs no frame of its own, and it can be neither
  // copied nor moved. The process resumes through the event queue at
  // delivery (or failure/timeout) time; a local transfer (src == dst)
  // completes without suspending.
  class [[nodiscard]] TransferAwaiter {
   public:
    TransferAwaiter(const TransferAwaiter&) = delete;
    TransferAwaiter& operator=(const TransferAwaiter&) = delete;

    bool await_ready();
    void await_suspend(std::coroutine_handle<> waiter);
    TransferRecord await_resume() const { return record_; }

   private:
    friend class Network;
    TransferAwaiter(Network& network, const TransferRecord& record,
                    double timeout_seconds)
        : network_(network),
          timeout_seconds_(timeout_seconds),
          record_(record) {}

    Network& network_;
    double timeout_seconds_;
    TransferRecord record_;
    std::coroutine_handle<> waiter_;
  };

  // Moves `bytes` from src to dst; `co_await` it to receive the timing
  // record at delivery time. Nothing happens until it is awaited. A
  // transfer with src == dst is local (shared memory) and completes
  // instantly with no startup cost.
  // If `timeout_seconds` is finite, the transfer resolves no later than
  // now + timeout_seconds, with outcome kTimedOut if it had not finished.
  // Callers must check record.ok() whenever faults can be active.
  // `session` tags the transfer with the issuing query session (wadc_session)
  // for traces/metrics; kNoSession leaves output untouched.
  TransferAwaiter transfer(HostId src, HostId dst, double bytes,
                           int priority = kDataPriority,
                           double timeout_seconds = kNoTransferTimeout,
                           int session = kNoSession);

  void add_observer(TransferObserver observer);

  // Attaches a byte-mover backend (see net/transport.h). Null (the default)
  // keeps the simulated bandwidth-trace integrator. Admission, priorities,
  // fault gating, timeouts, records, and observers stay in Network either
  // way; the backend only decides *when the bytes actually arrive*. Call
  // before traffic flows; reset() detaches.
  void set_transport(Transport* transport);
  Transport* transport() const { return transport_; }

  // Epoch boundary for sweep workers: rebinds the network to a new link
  // table and parameter set and rewinds every counter, queue, observer
  // list, obs attachment, and fault flag to its just-constructed value —
  // keeping container capacity, so a reused Network allocates nothing in
  // steady state. The caller must have torn down all processes first
  // (Simulation::reset()); a reset Network behaves byte-identically to a
  // freshly constructed one.
  void reset(const LinkTable& links, const NetworkParams& params);

  // Attaches tracing/metrics (see obs::Obs). Emits per-transfer enqueue /
  // queue-wait / transfer events on the source host's link lanes plus
  // latency, queue-wait, size, and per-link byte metrics. Call before
  // traffic flows; a default Obs detaches.
  void set_obs(const obs::Obs& obs);

  sim::Simulation& simulation() { return sim_; }
  const LinkTable& links() const { return *links_; }
  const NetworkParams& params() const { return params_; }
  int num_hosts() const { return links_->num_hosts(); }

  bool host_busy(HostId h) const;  // at capacity
  int host_active_transfers(HostId h) const;
  // Queued (not yet started) transfers with h as an endpoint — the host's
  // NIC queue depth under the single-interface model.
  int host_pending_transfers(HostId h) const;
  std::size_t pending_count() const { return pending_.size(); }
  int active_transfer_count() const {
    return static_cast<int>(active_transfers_.size());
  }
  std::uint64_t transfers_completed() const { return transfers_completed_; }
  std::uint64_t transfers_failed() const { return transfers_failed_; }
  std::uint64_t transfers_timed_out() const { return transfers_timed_out_; }
  double bytes_delivered() const { return bytes_delivered_; }
  // Bytes accepted by the transport but not yet delivered (queued + in
  // flight) — the backpressure signal admission control divides by the
  // client-link bandwidth to estimate drain time.
  double inflight_bytes() const { return inflight_bytes_; }
  // Bytes delivered on behalf of a tagged session (0 for unknown sessions).
  // Maintained unconditionally, unlike the lazy per-session metric
  // counters, so the timeline sampler works with metrics detached.
  double session_bytes_delivered(int session) const;

  // ---- Fault injection (driven by fault::FaultInjector) ----

  // Marks a host dead (alive=false) or restarts it. Killing a host fails
  // every in-flight transfer touching it (outcome kFailed, resolved at the
  // current time); queued transfers stay queued until the host returns or
  // they time out. Restarting re-examines the queue.
  void set_host_alive(HostId h, bool alive);
  bool host_alive(HostId h) const;

  // Begins/ends a blackout window on link {a, b}. Windows nest: the link is
  // usable again only when every begun window has ended. Beginning a
  // blackout fails in-flight transfers on the link.
  void set_link_blackout(HostId a, HostId b, bool blacked_out);
  bool link_blacked_out(HostId a, HostId b) const;

  // Every subsequently *started* transfer independently fails with
  // probability p (at its would-be delivery time, holding its endpoints the
  // whole while). Draws come from a dedicated RNG stream seeded here, so
  // enabling drops never perturbs other random state.
  void set_drop_probability(double p, std::uint64_t seed);

 private:
  struct Pending {
    HostId src;
    HostId dst;
    double bytes;
    int priority;
    std::uint64_t seq;
    TransferAwaiter* caller;
    sim::SimTime deadline;       // kTimeInfinity when no timeout
    sim::EventSeq timeout_event;  // kNoEventSeq when no timeout
  };

  struct Active {
    std::uint64_t seq;
    HostId src;
    HostId dst;
    TransferAwaiter* caller;
    sim::EventSeq completion_event;
    sim::EventSeq timeout_event;  // kNoEventSeq when no timeout
    bool dropped;                 // loses the race at delivery time
  };
  using ActiveIt = std::vector<Active>::iterator;

  // Queues an awaited transfer and admits it if it can start now.
  void enqueue(TransferAwaiter& transfer);
  // Endpoints free *and* usable (alive, link not blacked out).
  bool can_start(const Pending& p) const;
  // Starts every queued transfer that can_start, in (priority, FIFO)
  // order. Needed whenever endpoints free up or faults clear.
  void try_start_transfers();
  void start(const Pending& p);
  // The active transfer with this seq, or active_transfers_.end().
  ActiveIt find_active(std::uint64_t seq);
  // Resumes the awaiting process through the event queue, now.
  void wake(const TransferAwaiter& transfer);

  // Delivery-time handler for the active transfer with the given seq.
  void on_complete(std::uint64_t seq);
  // Transport-backend completion: invoked on the driving loop's thread
  // context (inside Clock::wait_until), defers into the event queue at
  // external_now() so the caller resumes at a well-defined sim time.
  static void transport_trampoline(void* ctx, std::uint64_t seq,
                                   bool delivered);
  // The deferred half: tolerant of already-resolved seqs (a timeout or
  // fault may have raced the delivery).
  void on_transport_resolved(std::uint64_t seq, bool delivered);
  // Deadline handler; the transfer may be pending or active.
  void on_timeout(std::uint64_t seq);
  // Resolves an active transfer. Exactly one of the bracketing events has
  // fired (the caller's); the other is cancelled here.
  void finish_active(ActiveIt it, TransferOutcome outcome,
                     bool completion_fired, bool timeout_fired);
  // Resolves a queued (never-started) transfer as failed/timed out.
  void fail_pending(std::size_t index, TransferOutcome outcome);

  // Sets the NIC-queue-depth gauge after the queue changes size.
  void note_pending_depth(std::size_t depth);
  // Trace/metric emission for one completed transfer.
  void record_transfer_obs(const TransferRecord& rec);
  // Trace/metric emission for one failed/timed-out transfer. Counters are
  // created lazily so fault-free runs keep byte-identical metrics output.
  void note_failure(const TransferRecord& rec);

  sim::Simulation& sim_;
  Transport* transport_ = nullptr;  // null = simulated integrator
  // Pointer, not reference: reset() rebinds it to the next run's table.
  // Never null; may dangle between a run's teardown and the next reset(),
  // during which nothing dereferences it.
  const LinkTable* links_;
  NetworkParams params_;
  std::vector<int> active_;  // concurrent transfers per host
  // Sorted: higher priority first, then seq. Every entry is blocked (not
  // can_start) between calls into Network: each event that can unblock one
  // ends in a full try_start_transfers() pass.
  std::vector<Pending> pending_;
  // Sorted by seq, so fault handling visits victims deterministically. At
  // most hosts * host_capacity / 2 entries.
  std::vector<Active> active_transfers_;
  std::vector<TransferObserver> observers_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t transfers_completed_ = 0;
  std::uint64_t transfers_failed_ = 0;
  std::uint64_t transfers_timed_out_ = 0;
  double bytes_delivered_ = 0;
  double inflight_bytes_ = 0;  // queued + active, resolved transfers excluded
  std::map<int, double> session_bytes_delivered_;  // tagged sessions only

  // Fault state.
  std::vector<char> host_dead_;      // per host
  std::vector<int> blackout_depth_;  // per unordered pair (nesting count)
  double drop_probability_ = 0;
  std::optional<Rng> drop_rng_;

  // Observability (all null when detached).
  obs::Obs obs_;
  obs::Counter* overtakes_counter_ = nullptr;
  obs::Counter* transfers_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;     // lazy: fault runs only
  obs::Counter* timed_out_counter_ = nullptr;  // lazy: fault runs only
  obs::Gauge* pending_gauge_ = nullptr;  // net.pending_transfers depth
  obs::Histogram* transfer_seconds_ = nullptr;
  obs::Histogram* queue_wait_seconds_ = nullptr;
  obs::Histogram* transfer_bytes_ = nullptr;
  std::vector<obs::Counter*> link_bytes_;  // indexed src * num_hosts + dst
  // Per-session delivered-byte counters, created lazily on the first tagged
  // transfer so untagged (single-session) runs keep identical metrics.
  std::map<int, obs::Counter*> session_bytes_;
};

}  // namespace wadc::net
