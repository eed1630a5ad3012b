#include "net/network.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "common/model_constants.h"

namespace wadc::net {

namespace {

// Orders the seq-sorted active list for std::lower_bound.
constexpr auto seq_before = [](const auto& entry, std::uint64_t seq) {
  return entry.seq < seq;
};

}  // namespace

std::string NetworkParams::validate() const {
  if (host_capacity < 1) {
    return "host_capacity must be >= 1, got " + std::to_string(host_capacity);
  }
  return {};
}

const char* transfer_outcome_name(TransferOutcome outcome) {
  switch (outcome) {
    case TransferOutcome::kCompleted:
      return "completed";
    case TransferOutcome::kFailed:
      return "failed";
    case TransferOutcome::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

Network::Network(sim::Simulation& sim, const LinkTable& links,
                 const NetworkParams& params)
    : sim_(sim),
      links_(links),
      params_(params),
      active_(static_cast<std::size_t>(links.num_hosts()), 0),
      host_dead_(static_cast<std::size_t>(links.num_hosts()), 0),
      blackout_depth_(pair_count(links.num_hosts()), 0) {
  const std::string problem = params_.validate();
  WADC_ASSERT(problem.empty(), "bad NetworkParams: ", problem);
}

void Network::add_observer(TransferObserver observer) {
  WADC_ASSERT(observer.fn != nullptr, "null transfer observer");
  observers_.push_back(observer);
}

void Network::set_transport(Transport* transport) {
  transport_ = transport;
  if (transport_ != nullptr) {
    transport_->set_completion(&Network::transport_trampoline, this);
  }
}

void Network::set_obs(const obs::Obs& obs) {
  obs_ = obs;
  overtakes_counter_ = nullptr;
  transfers_counter_ = nullptr;
  bytes_counter_ = nullptr;
  failed_counter_ = nullptr;
  timed_out_counter_ = nullptr;
  pending_gauge_ = nullptr;
  transfer_seconds_ = nullptr;
  queue_wait_seconds_ = nullptr;
  transfer_bytes_ = nullptr;
  session_bytes_.clear();
  link_bytes_.assign(
      static_cast<std::size_t>(num_hosts()) *
          static_cast<std::size_t>(num_hosts()),
      nullptr);
  if (obs_.metrics) {
    overtakes_counter_ = &obs_.metrics->counter("net.priority_overtakes");
    transfers_counter_ = &obs_.metrics->counter("net.transfers_completed");
    bytes_counter_ = &obs_.metrics->counter("net.bytes_delivered");
    pending_gauge_ = &obs_.metrics->gauge("net.pending_transfers");
    transfer_seconds_ = &obs_.metrics->histogram(
        "net.transfer_seconds", obs::exponential_buckets(0.01, 2, 16));
    std::vector<double> wait_bounds{0.0};
    for (const double b : obs::exponential_buckets(0.05, 2, 14)) {
      wait_bounds.push_back(b);
    }
    queue_wait_seconds_ = &obs_.metrics->histogram("net.queue_wait_seconds",
                                                   std::move(wait_bounds));
    transfer_bytes_ = &obs_.metrics->histogram(
        "net.transfer_bytes", obs::exponential_buckets(256, 4, 12));
    // Failure counters are created lazily in note_failure so fault-free
    // runs keep their metrics output byte-identical.
  }
  if (obs_.tracer) {
    for (HostId src = 0; src < num_hosts(); ++src) {
      for (HostId dst = 0; dst < num_hosts(); ++dst) {
        if (src == dst) continue;
        obs_.tracer->name_thread(src, obs::link_lane(dst),
                                 "link->host" + std::to_string(dst));
      }
    }
  }
}

bool Network::host_busy(HostId h) const {
  WADC_ASSERT(h >= 0 && h < num_hosts(), "host id out of range");
  return active_[static_cast<std::size_t>(h)] >= params_.host_capacity;
}

int Network::host_active_transfers(HostId h) const {
  WADC_ASSERT(h >= 0 && h < num_hosts(), "host id out of range");
  return active_[static_cast<std::size_t>(h)];
}

int Network::host_pending_transfers(HostId h) const {
  WADC_ASSERT(h >= 0 && h < num_hosts(), "host id out of range");
  int n = 0;
  for (const Pending& p : pending_) {
    if (p.src == h || p.dst == h) ++n;
  }
  return n;
}

double Network::session_bytes_delivered(int session) const {
  const auto it = session_bytes_delivered_.find(session);
  return it == session_bytes_delivered_.end() ? 0.0 : it->second;
}

void Network::note_pending_depth(std::size_t depth) {
  if (pending_gauge_) pending_gauge_->set(static_cast<double>(depth));
}

bool Network::host_alive(HostId h) const {
  WADC_ASSERT(h >= 0 && h < num_hosts(), "host id out of range");
  return !host_dead_[static_cast<std::size_t>(h)];
}

bool Network::link_blacked_out(HostId a, HostId b) const {
  return blackout_depth_[pair_index(a, b, num_hosts())] > 0;
}

Network::TransferAwaiter Network::transfer(HostId src, HostId dst,
                                           double bytes, int priority,
                                           double timeout_seconds,
                                           int session) {
  return TransferAwaiter(*this, src, dst, bytes, priority, timeout_seconds,
                         session);
}

void Network::TransferAwaiter::rearm(HostId src, HostId dst, double bytes,
                                     double timeout_seconds) {
  WADC_ASSERT(src >= 0 && src < network_.num_hosts(), "bad src host");
  WADC_ASSERT(dst >= 0 && dst < network_.num_hosts(), "bad dst host");
  WADC_ASSERT(bytes >= 0, "negative transfer size");
  WADC_ASSERT(timeout_seconds > 0, "non-positive transfer timeout");
  record_ = TransferRecord{.src = src,
                           .dst = dst,
                           .bytes = bytes,
                           .priority = record_.priority,
                           .session = record_.session};
  timeout_seconds_ = timeout_seconds;
}

bool Network::TransferAwaiter::await_ready() {
  record_.requested = network_.sim_.now();
  if (record_.src != record_.dst) return false;
  record_.started = record_.completed = record_.requested;
  return true;
}

bool Network::TransferAwaiter::start(sim::Continuation done) {
  if (await_ready()) return true;
  done_ = done;
  network_.enqueue(*this);
  return false;
}

void Network::enqueue(TransferAwaiter& transfer) {
  const TransferRecord& record = transfer.record_;
  const std::uint64_t seq = next_seq_++;
  Pending pending{record.src, record.dst, record.bytes, record.priority,
                  seq, &transfer, sim::kTimeInfinity, sim::kNoEventSeq};
  if (transfer.timeout_seconds_ != kNoTransferTimeout) {
    pending.deadline = sim_.now() + transfer.timeout_seconds_;
    auto fire = [this, seq] { on_timeout(seq); };
    static_assert(sim::Callback::fits_inline<decltype(fire)>(),
                  "timeout thunks must stay allocation-free");
    pending.timeout_event =
        sim_.schedule_at_cancellable(pending.deadline, fire);
  }
  // Queue position keeping (priority desc, seq asc) order.
  const auto it = std::partition_point(
      pending_.begin(), pending_.end(),
      [&](const Pending& p) { return p.priority >= pending.priority; });
  const auto overtaken = static_cast<int>(pending_.end() - it);
  inflight_bytes_ += record.bytes;
  // Every queued transfer is blocked and an enqueue frees nothing, so the
  // newcomer is the only one an admission pass could start. One that
  // starts at once still passes through the queue as far as the depth
  // gauge is concerned: up by one, then back down.
  const bool admit = can_start(pending);
  note_pending_depth(pending_.size() + 1);
  if (obs_.tracer) {
    obs_.tracer->instant("net", "enqueue", record.src,
                         obs::link_lane(record.dst), record.requested,
                         {{"bytes", record.bytes},
                          {"priority", record.priority}});
    if (overtaken > 0) {
      // A control/barrier message jumped ahead of queued data (§2.2).
      obs_.tracer->instant("net", "priority_overtake", record.src,
                           obs::link_lane(record.dst), record.requested,
                           {{"priority", record.priority},
                            {"overtaken", overtaken}});
    }
  }
  if (overtaken > 0 && overtakes_counter_) {
    overtakes_counter_->add(overtaken);
  }
  if (admit) {
    note_pending_depth(pending_.size());
    start(pending);
  } else {
    pending_.insert(it, pending);
  }
}

bool Network::can_start(const Pending& p) const {
  const int cap = params_.host_capacity;
  const auto src = static_cast<std::size_t>(p.src);
  const auto dst = static_cast<std::size_t>(p.dst);
  return active_[src] < cap && active_[dst] < cap && !host_dead_[src] &&
         !host_dead_[dst] &&
         blackout_depth_[pair_index(p.src, p.dst, num_hosts())] == 0;
}

void Network::try_start_transfers() {
  // Greedy in queue order: each startable transfer claims its endpoints,
  // which may block later (lower-priority) entries — exactly the behavior
  // of per-NIC priority queues. Transfers whose endpoints are dead or
  // blacked out stay queued until conditions clear or their timeout fires.
  for (std::size_t i = 0; i < pending_.size();) {
    if (can_start(pending_[i])) {
      const Pending claimed = pending_[i];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      note_pending_depth(pending_.size());
      start(claimed);
      // restart not needed: starting only makes hosts busier
    } else {
      ++i;
    }
  }
}

Network::ActiveIt Network::find_active(std::uint64_t seq) {
  const auto it = std::lower_bound(active_transfers_.begin(),
                                   active_transfers_.end(), seq, seq_before);
  return it != active_transfers_.end() && it->seq == seq
             ? it
             : active_transfers_.end();
}

void Network::wake(const TransferAwaiter& transfer) {
  auto resume = [done = transfer.done_] { done(); };
  static_assert(sim::Callback::fits_inline<decltype(resume)>(),
                "resume thunks must stay allocation-free");
  sim_.schedule_at(sim_.now(), resume);
}

void Network::start(const Pending& p) {
  ++active_[static_cast<std::size_t>(p.src)];
  ++active_[static_cast<std::size_t>(p.dst)];

  const sim::SimTime now = sim_.now();
  p.caller->record_.started = now;

  // A dropped transfer occupies its endpoints for the full duration and
  // fails at delivery time — the receiver simply never sees the message.
  const bool dropped = drop_probability_ > 0 && drop_rng_ &&
                       drop_rng_->bernoulli(drop_probability_);

  const std::uint64_t seq = p.seq;
  Active active{seq, p.src, p.dst, p.caller, sim::kNoEventSeq,
                p.timeout_event, dropped};

  if (transport_ != nullptr) {
    // Backend-delegated delivery: the transport ships real bytes and calls
    // back (via the trampoline) when the last one lands; there is no
    // analytically scheduled completion event to cancel.
    //
    // Charge the modeled per-message startup cost before bytes flow, like
    // the integrator path does — the monitor's app-bandwidth estimates
    // (bytes / (completed - started)) assume it. The launch is an ordinary
    // event: under the realtime clock it fires kMessageStartupSeconds of scaled
    // wall time later. A fault or timeout may resolve the transfer first,
    // in which case the launch finds its seq gone and does nothing.
    const HostId src = p.src;
    const HostId dst = p.dst;
    const double bytes = p.bytes;
    const int priority = p.priority;
    const int session = p.caller->record_.session;
    auto launch = [this, seq, src, dst, bytes, priority, session] {
      if (transport_ == nullptr) return;
      if (find_active(seq) == active_transfers_.end()) return;
      transport_->start_transfer(src, dst, bytes, priority, session, seq);
    };
    static_assert(sim::Callback::fits_inline<decltype(launch)>(),
                  "transport launches must stay allocation-free");
    sim_.schedule_at(now + kMessageStartupSeconds, launch);
  } else {
    const sim::SimTime tx_begin = now + kMessageStartupSeconds;
    const sim::SimTime end =
        links_.finish_time(p.src, p.dst, tx_begin, p.bytes);
    WADC_ASSERT(end >= tx_begin, "transfer finishes before it starts");

    auto complete = [this, seq] { on_complete(seq); };
    static_assert(sim::Callback::fits_inline<decltype(complete)>(),
                  "transfer completions must stay allocation-free");
    active.completion_event = sim_.schedule_at_cancellable(end, complete);
  }
  // Usually the newest seq, so this appends.
  active_transfers_.insert(
      std::lower_bound(active_transfers_.begin(), active_transfers_.end(),
                       seq, seq_before),
      active);
}

void Network::on_complete(std::uint64_t seq) {
  const auto it = find_active(seq);
  WADC_ASSERT(it != active_transfers_.end(),
              "completion for unknown transfer");
  const TransferOutcome outcome = it->dropped
                                      ? TransferOutcome::kFailed
                                      : TransferOutcome::kCompleted;
  finish_active(it, outcome, /*completion_fired=*/true,
                /*timeout_fired=*/false);
}

void Network::transport_trampoline(void* ctx, std::uint64_t seq,
                                   bool delivered) {
  auto* self = static_cast<Network*>(ctx);
  auto resolve = [self, seq, delivered] {
    self->on_transport_resolved(seq, delivered);
  };
  static_assert(sim::Callback::fits_inline<decltype(resolve)>(),
                "transport completions must stay allocation-free");
  self->sim_.schedule_at(self->sim_.external_now(), resolve);
}

void Network::on_transport_resolved(std::uint64_t seq, bool delivered) {
  const auto it = find_active(seq);
  // A timeout or injected fault may have resolved the transfer between the
  // wire delivery and this deferred event; the late completion is dropped.
  if (it == active_transfers_.end()) return;
  const TransferOutcome outcome =
      !delivered || it->dropped ? TransferOutcome::kFailed
                                : TransferOutcome::kCompleted;
  finish_active(it, outcome, /*completion_fired=*/true,
                /*timeout_fired=*/false);
}

void Network::on_timeout(std::uint64_t seq) {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].seq == seq) {
      fail_pending(i, TransferOutcome::kTimedOut);
      return;
    }
  }
  const auto it = find_active(seq);
  WADC_ASSERT(it != active_transfers_.end(), "timeout for unknown transfer");
  finish_active(it, TransferOutcome::kTimedOut, /*completion_fired=*/false,
                /*timeout_fired=*/true);
}

void Network::finish_active(ActiveIt it, TransferOutcome outcome,
                            bool completion_fired, bool timeout_fired) {
  const Active a = *it;
  active_transfers_.erase(it);
  if (!completion_fired) {
    sim_.cancel_scheduled(a.completion_event);
    // Backend-delegated transfers have bytes on the wire; abandon them so
    // no completion arrives for a seq that no longer exists.
    if (transport_ != nullptr) transport_->cancel_transfer(a.seq);
  }
  if (!timeout_fired) sim_.cancel_scheduled(a.timeout_event);

  --active_[static_cast<std::size_t>(a.src)];
  --active_[static_cast<std::size_t>(a.dst)];
  TransferRecord& record = a.caller->record_;
  inflight_bytes_ -= record.bytes;
  record.completed = sim_.now();
  record.outcome = outcome;
  if (outcome == TransferOutcome::kCompleted) {
    ++transfers_completed_;
    bytes_delivered_ += record.bytes;
    if (record.session != kNoSession) {
      session_bytes_delivered_[record.session] += record.bytes;
    }
    record_transfer_obs(record);
  } else {
    note_failure(record);
  }
  for (const TransferObserver& o : observers_) o.fn(o.ctx, record);
  wake(*a.caller);
  try_start_transfers();
}

void Network::fail_pending(std::size_t index, TransferOutcome outcome) {
  const Pending p = pending_[index];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  inflight_bytes_ -= p.bytes;
  note_pending_depth(pending_.size());
  // Only timeouts resolve queued transfers, so the timeout event has fired;
  // there is no completion event yet — nothing to cancel.
  TransferRecord& record = p.caller->record_;
  record.started = record.completed = sim_.now();
  record.outcome = outcome;
  note_failure(record);
  for (const TransferObserver& o : observers_) o.fn(o.ctx, record);
  wake(*p.caller);
}

void Network::set_host_alive(HostId h, bool alive) {
  WADC_ASSERT(h >= 0 && h < num_hosts(), "host id out of range");
  host_dead_[static_cast<std::size_t>(h)] = alive ? 0 : 1;
  if (alive) {
    try_start_transfers();
    return;
  }
  // Fail every in-flight transfer touching the dead host, in seq order.
  // finish_active erases from the list (and may start unrelated queued
  // transfers), so collect the victims first.
  std::vector<std::uint64_t> victims;
  for (const Active& a : active_transfers_) {
    if (a.src == h || a.dst == h) victims.push_back(a.seq);
  }
  for (const std::uint64_t seq : victims) {
    const auto it = find_active(seq);
    if (it == active_transfers_.end()) continue;
    finish_active(it, TransferOutcome::kFailed, /*completion_fired=*/false,
                  /*timeout_fired=*/false);
  }
}

void Network::set_link_blackout(HostId a, HostId b, bool blacked_out) {
  const std::size_t idx = pair_index(a, b, num_hosts());
  if (!blacked_out) {
    WADC_ASSERT(blackout_depth_[idx] > 0, "ending a blackout never begun");
    if (--blackout_depth_[idx] == 0) try_start_transfers();
    return;
  }
  ++blackout_depth_[idx];
  std::vector<std::uint64_t> victims;
  for (const Active& act : active_transfers_) {
    if ((act.src == a && act.dst == b) || (act.src == b && act.dst == a)) {
      victims.push_back(act.seq);
    }
  }
  for (const std::uint64_t seq : victims) {
    const auto it = find_active(seq);
    if (it == active_transfers_.end()) continue;
    finish_active(it, TransferOutcome::kFailed, /*completion_fired=*/false,
                  /*timeout_fired=*/false);
  }
}

void Network::set_drop_probability(double p, std::uint64_t seed) {
  WADC_ASSERT(p >= 0 && p <= 1, "drop probability out of range: ", p);
  drop_probability_ = p;
  if (p > 0 && !drop_rng_) {
    // Dedicated stream: enabling drops must not perturb any other RNG.
    drop_rng_.emplace(Rng(seed).fork(0xd209));
  }
}

void Network::record_transfer_obs(const TransferRecord& rec) {
  const double wait = rec.queue_wait();
  if (obs_.tracer) {
    const int lane = obs::link_lane(rec.dst);
    if (wait > 0) {
      // Endpoint-congestion wait: the single-NIC model blocked this message
      // behind other traffic at one of its endpoints.
      obs_.tracer->complete("net", "queue_wait", rec.src, lane, rec.requested,
                            rec.started, {{"priority", rec.priority}});
    }
    if (rec.session >= 0) {
      obs_.tracer->complete("net", "transfer", rec.src, lane, rec.started,
                            rec.completed,
                            {{"bytes", rec.bytes},
                             {"priority", rec.priority},
                             {"dst", rec.dst},
                             {"queue_wait_s", wait},
                             {"session", rec.session}});
    } else {
      obs_.tracer->complete("net", "transfer", rec.src, lane, rec.started,
                            rec.completed,
                            {{"bytes", rec.bytes},
                             {"priority", rec.priority},
                             {"dst", rec.dst},
                             {"queue_wait_s", wait}});
    }
  }
  if (obs_.metrics) {
    transfers_counter_->add();
    bytes_counter_->add(rec.bytes);
    transfer_seconds_->observe(rec.completed - rec.started);
    queue_wait_seconds_->observe(wait);
    transfer_bytes_->observe(rec.bytes);
    const auto idx = static_cast<std::size_t>(rec.src) *
                         static_cast<std::size_t>(num_hosts()) +
                     static_cast<std::size_t>(rec.dst);
    if (!link_bytes_[idx]) {
      link_bytes_[idx] = &obs_.metrics->counter(
          "net.link_bytes.host" + std::to_string(rec.src) + "->host" +
          std::to_string(rec.dst));
    }
    link_bytes_[idx]->add(rec.bytes);
    if (rec.session >= 0) {
      auto [it, inserted] = session_bytes_.emplace(rec.session, nullptr);
      if (inserted) {
        it->second = &obs_.metrics->counter(
            "net.session_bytes.session" + std::to_string(rec.session));
      }
      it->second->add(rec.bytes);
    }
  }
}

void Network::note_failure(const TransferRecord& rec) {
  if (rec.outcome == TransferOutcome::kTimedOut) {
    ++transfers_timed_out_;
    if (obs_.metrics) {
      if (!timed_out_counter_) {
        timed_out_counter_ = &obs_.metrics->counter("net.transfers_timed_out");
      }
      timed_out_counter_->add();
    }
  } else {
    ++transfers_failed_;
    if (obs_.metrics) {
      if (!failed_counter_) {
        failed_counter_ = &obs_.metrics->counter("net.transfers_failed");
      }
      failed_counter_->add();
    }
  }
  if (obs_.tracer) {
    obs_.tracer->instant("net", "transfer_failed", rec.src,
                         obs::link_lane(rec.dst), rec.completed,
                         {{"bytes", rec.bytes},
                          {"dst", rec.dst},
                          {"outcome", transfer_outcome_name(rec.outcome)}});
  }
}

}  // namespace wadc::net
