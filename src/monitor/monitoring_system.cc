#include "monitor/monitoring_system.h"

#include "common/assert.h"

namespace wadc::monitor {

namespace {

// §4's measurement constants, as in the study: a message of at least
// S_thres bytes yields a passive sample, an on-demand probe is a 16KB round
// trip, and a delegated probe is requested and answered with small control
// messages.
constexpr double kSThresBytes = 16.0 * 1024;
constexpr double kProbeBytes = 16.0 * 1024;
constexpr double kControlBytes = 256;

// Probe transfers share one deadline (probe_timeout_seconds; 0 = wait
// forever, the pre-fault behavior) and never retry.
net::RetryPolicy probe_policy(const MonitorParams& params) {
  net::RetryPolicy policy;
  policy.timeout_base_seconds = params.probe_timeout_seconds;
  return policy;
}

}  // namespace

MonitoringSystem::MonitoringSystem(net::Network& network,
                                   const MonitorParams& params)
    : network_(network),
      params_(params),
      probe_channel_(network, probe_policy(params), Rng(0)) {
  const int n = network.num_hosts();
  caches_.reserve(static_cast<std::size_t>(n));
  for (int h = 0; h < n; ++h) {
    caches_.push_back(
        std::make_unique<BandwidthCache>(n, params_.t_thres_seconds));
  }
  network_.add_observer({[](void* ctx, const net::TransferRecord& rec) {
                           static_cast<MonitoringSystem*>(ctx)->on_transfer(
                               rec);
                         },
                         this});
}

void MonitoringSystem::set_obs(const obs::Obs& obs) {
  obs_ = obs;
  passive_counter_ = nullptr;
  cache_hits_ = nullptr;
  cache_stale_ = nullptr;
  cache_misses_ = nullptr;
  piggyback_samples_ = nullptr;
  piggyback_bytes_ = nullptr;
  probes_counter_ = nullptr;
  probes_delegated_ = nullptr;
  probe_bytes_counter_ = nullptr;
  invalidations_ = nullptr;
  cache_entries_ = nullptr;
  cache_age_seconds_ = nullptr;
  if (obs_.metrics) {
    cache_entries_ = &obs_.metrics->gauge("monitor.cache_entries");
    passive_counter_ = &obs_.metrics->counter("monitor.passive_samples");
    cache_hits_ = &obs_.metrics->counter("monitor.cache_hits");
    cache_stale_ = &obs_.metrics->counter("monitor.cache_stale");
    cache_misses_ = &obs_.metrics->counter("monitor.cache_misses");
    piggyback_samples_ =
        &obs_.metrics->counter("monitor.piggyback_samples_delivered");
    piggyback_bytes_ =
        &obs_.metrics->counter("monitor.piggyback_bytes_delivered");
    probes_counter_ = &obs_.metrics->counter("monitor.probes_issued");
    probes_delegated_ = &obs_.metrics->counter("monitor.probes_delegated");
    probe_bytes_counter_ = &obs_.metrics->counter("monitor.probe_bytes");
    cache_age_seconds_ = &obs_.metrics->histogram(
        "monitor.cache_age_seconds", obs::exponential_buckets(1, 2, 10));
  }
}

BandwidthCache& MonitoringSystem::cache(net::HostId h) {
  WADC_ASSERT(h >= 0 && h < network_.num_hosts(), "host id out of range");
  return *caches_[static_cast<std::size_t>(h)];
}

const BandwidthCache& MonitoringSystem::cache(net::HostId h) const {
  WADC_ASSERT(h >= 0 && h < network_.num_hosts(), "host id out of range");
  return *caches_[static_cast<std::size_t>(h)];
}

void MonitoringSystem::note_cache_size() {
  if (!cache_entries_) return;
  std::size_t total = 0;
  for (const auto& cache : caches_) total += cache->entry_count();
  cache_entries_->set(static_cast<double>(total));
}

void MonitoringSystem::on_transfer(const net::TransferRecord& rec) {
  if (!rec.ok()) return;  // failed/timed-out transfers measure nothing
  if (rec.src == rec.dst) return;  // local move: nothing to measure
  if (rec.bytes < kSThresBytes) return;
  const double bw = rec.app_bandwidth();
  if (bw <= 0) return;
  // Both endpoints learn the pair bandwidth (§4 feature (1)).
  cache(rec.src).record(rec.src, rec.dst, bw, rec.completed);
  cache(rec.dst).record(rec.src, rec.dst, bw, rec.completed);
  note_cache_size();
  ++passive_samples_;
  if (passive_counter_) passive_counter_->add();
}

Payload MonitoringSystem::piggyback_payload_shared(net::HostId src) const {
  if (!params_.piggyback_enabled) return nullptr;
  constexpr std::size_t max_entries =
      MonitorParams::piggyback_budget_bytes /
      MonitorParams::piggyback_entry_bytes;
  return cache(src).freshest_shared(network_.simulation().now(), max_entries);
}

std::vector<PairSample> MonitoringSystem::piggyback_payload(
    net::HostId src) const {
  const Payload p = piggyback_payload_shared(src);
  if (!p) return {};
  return *p;
}

double MonitoringSystem::payload_bytes(
    const std::vector<PairSample>& payload) const {
  return static_cast<double>(payload.size() *
                             MonitorParams::piggyback_entry_bytes);
}

double MonitoringSystem::payload_bytes(const Payload& payload) const {
  return payload ? payload_bytes(*payload) : 0.0;
}

void MonitoringSystem::deliver_payload(
    net::HostId dst, const std::vector<PairSample>& payload) {
  if (payload.empty()) return;
  cache(dst).merge(payload);
  note_cache_size();
  if (piggyback_samples_) {
    piggyback_samples_->add(static_cast<double>(payload.size()));
    piggyback_bytes_->add(payload_bytes(payload));
  }
}

void MonitoringSystem::deliver_payload(net::HostId dst,
                                       const Payload& payload) {
  if (payload) deliver_payload(dst, *payload);
}

void MonitoringSystem::invalidate_host(net::HostId h) {
  for (auto& cache : caches_) cache->invalidate_host(h);
  note_cache_size();
  if (obs_.metrics) {
    // Lazy: fault-free runs never create this counter.
    if (!invalidations_) {
      invalidations_ = &obs_.metrics->counter("monitor.host_invalidations");
    }
    invalidations_->add();
  }
  if (obs_.tracer) {
    obs_.tracer->instant("monitor", "invalidate_host", h, obs::kControlLane,
                         network_.simulation().now(), {{"host", h}});
  }
}

std::optional<double> MonitoringSystem::cached_bandwidth(
    net::HostId h, net::HostId a, net::HostId b) const {
  const auto s = cache(h).lookup(a, b, network_.simulation().now());
  if (!s) return std::nullopt;
  return s->bandwidth;
}

sim::Task<bool> MonitoringSystem::run_probe(net::HostId a, net::HostId b) {
  ++probes_issued_;
  probe_bytes_sent_ += 2 * kProbeBytes;
  if (probes_counter_) {
    probes_counter_->add();
    probe_bytes_counter_->add(2 * kProbeBytes);
  }
  const sim::SimTime begin = network_.simulation().now();
  // A 16KB transfer in each direction; the passive monitor records both
  // legs at both endpoints (each leg is >= S_thres by construction).
  const auto out = co_await probe_channel_.transfer(a, b, kProbeBytes,
                                                    net::kControlPriority);
  bool ok = out.ok();
  if (ok) {
    const auto back = co_await probe_channel_.transfer(b, a, kProbeBytes,
                                                       net::kControlPriority);
    ok = back.ok();
  }
  if (obs_.tracer) {
    obs_.tracer->complete("monitor", "probe", a, obs::kControlLane, begin,
                          network_.simulation().now(),
                          {{"peer", b}, {"bytes", 2 * kProbeBytes}});
  }
  co_return ok;
}

sim::Task<std::optional<double>> MonitoringSystem::fetch_bandwidth(
    net::HostId requester, net::HostId a, net::HostId b) {
  WADC_ASSERT(a != b, "bandwidth of a host pair with itself");
  record_lookup_obs(requester, a, b);
  if (auto bw = cached_bandwidth(requester, a, b)) co_return bw;
  if (!params_.probing_enabled) {
    // Fall back to a stale sample if one exists.
    if (auto s = cache(requester).lookup_any_age(a, b)) {
      co_return s->bandwidth;
    }
    co_return std::nullopt;
  }

  if (requester != a && requester != b) {
    // Third-party pair: delegate to endpoint `a` with small control
    // messages. The reply always carries the fresh measurement (that is the
    // response payload, independent of opportunistic piggybacking), plus a
    // regular piggyback payload when enabled. Any leg failing (dead
    // delegate, blacked-out link) abandons the probe and falls back to
    // whatever is cached below.
    if (probes_delegated_) probes_delegated_->add();
    if (obs_.tracer) {
      obs_.tracer->instant("monitor", "probe_delegated", requester,
                           obs::kControlLane, network_.simulation().now(),
                           {{"delegate", a}, {"peer", b}});
    }
    const auto request = co_await probe_channel_.transfer(
        requester, a, kControlBytes, net::kControlPriority);
    if (request.ok()) {
      co_await run_probe(a, b);
      auto payload = piggyback_payload(a);
      if (const auto fresh = cache(a).lookup_any_age(a, b)) {
        payload.push_back(PairSample{a, b, *fresh});
      }
      const auto reply = co_await probe_channel_.transfer(
          a, requester, kControlBytes + payload_bytes(payload),
          net::kControlPriority);
      if (reply.ok()) deliver_payload(requester, payload);
    }
  } else {
    co_await run_probe(a, b);
  }

  // The probe itself took time; accept any unexpired sample it produced.
  if (auto bw = cached_bandwidth(requester, a, b)) co_return bw;
  if (auto s = cache(requester).lookup_any_age(a, b)) co_return s->bandwidth;
  co_return std::nullopt;
}

void MonitoringSystem::record_lookup_obs(net::HostId requester, net::HostId a,
                                         net::HostId b) {
  if (!obs_.enabled()) return;
  const sim::SimTime now = network_.simulation().now();
  const auto entry = cache(requester).lookup_any_age(a, b);
  const char* outcome;
  if (!entry) {
    outcome = "miss";
    if (cache_misses_) cache_misses_->add();
  } else {
    const sim::SimTime age = now - entry->measured_at;
    if (cache_age_seconds_) cache_age_seconds_->observe(age);
    if (age <= params_.t_thres_seconds) {
      outcome = "hit";
      if (cache_hits_) cache_hits_->add();
    } else {
      outcome = "stale";
      if (cache_stale_) cache_stale_->add();
    }
  }
  if (obs_.tracer) {
    std::vector<obs::TraceArg> args{
        {"a", a}, {"b", b}, {"outcome", outcome}};
    if (entry) args.emplace_back("age_s", now - entry->measured_at);
    obs_.tracer->instant("monitor", "cache_lookup", requester,
                         obs::kControlLane, now, std::move(args));
  }
}

}  // namespace wadc::monitor
