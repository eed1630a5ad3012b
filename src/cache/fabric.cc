#include "cache/fabric.h"

#include <string>

#include "common/assert.h"
#include "monitor/monitoring_system.h"

namespace wadc::cache {

namespace {

std::string host_metric(net::HostId host, const char* suffix) {
  return "cache.host" + std::to_string(host) + suffix;
}

}  // namespace

CacheFabric::CacheFabric(const CacheConfig& config, int num_hosts,
                         const monitor::MonitoringSystem* monitoring,
                         const obs::Obs& obs)
    : config_(config), monitoring_(monitoring), obs_(obs) {
  WADC_ASSERT(config_.enabled, "CacheFabric built from a disabled config");
  const std::string problem = config_.validate();
  WADC_ASSERT(problem.empty(), "bad cache config: ", problem);
  WADC_ASSERT(num_hosts > 0, "cache fabric needs at least one host");
  caches_.reserve(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    caches_.push_back(std::make_unique<ResultCache>(config_.capacity_bytes,
                                                    config_.policy));
  }
  if (obs_.metrics != nullptr) {
    hits_counter_ = &obs_.metrics->counter("cache.hits");
    misses_counter_ = &obs_.metrics->counter("cache.misses");
    insertions_counter_ = &obs_.metrics->counter("cache.insertions");
    evictions_counter_ = &obs_.metrics->counter("cache.evictions");
    diffusions_counter_ = &obs_.metrics->counter("cache.diffusions");
    invalidations_counter_ =
        &obs_.metrics->counter("cache.invalidated_replicas");
    bytes_saved_counter_ = &obs_.metrics->counter("cache.bytes_saved");
    replicas_gauge_ = &obs_.metrics->gauge("cache.replicas");
    host_obs_.resize(static_cast<std::size_t>(num_hosts));
    for (net::HostId h = 0; h < num_hosts; ++h) {
      HostObs& ho = host_obs_[static_cast<std::size_t>(h)];
      ho.hits = &obs_.metrics->counter(host_metric(h, ".hits"));
      ho.misses = &obs_.metrics->counter(host_metric(h, ".misses"));
      ho.evictions = &obs_.metrics->counter(host_metric(h, ".evictions"));
      ho.entries = &obs_.metrics->gauge(host_metric(h, ".entries"));
      ho.bytes = &obs_.metrics->gauge(host_metric(h, ".bytes"));
    }
  }
}

ResultCache& CacheFabric::cache_at(net::HostId host) {
  WADC_ASSERT(host >= 0 && static_cast<std::size_t>(host) < caches_.size(),
              "cache host id out of range");
  return *caches_[static_cast<std::size_t>(host)];
}

const ResultCache& CacheFabric::host_cache(net::HostId host) const {
  WADC_ASSERT(host >= 0 && static_cast<std::size_t>(host) < caches_.size(),
              "cache host id out of range");
  return *caches_[static_cast<std::size_t>(host)];
}

std::size_t CacheFabric::replicas() const {
  std::size_t total = 0;
  for (const auto& cache : caches_) total += cache->entries();
  return total;
}

std::optional<CacheFabric::Hit> CacheFabric::lookup(
    const CacheKey& key, net::HostId requester,
    const std::function<bool(net::HostId)>& alive) const {
  const auto usable = [&](net::HostId h) -> const ResultCache::Entry* {
    const ResultCache::Entry* entry = host_cache(h).find(key);
    return entry != nullptr && (!alive || alive(h)) ? entry : nullptr;
  };

  // A live local replica always wins.
  net::HostId best = requester;
  const ResultCache::Entry* best_entry = usable(requester);
  if (best_entry == nullptr) {
    // Otherwise the best any-age estimate toward the requester, probing
    // hosts in ascending id so the lower id wins ties; unknown pairs rank
    // slowest.
    double best_bw = -1;
    for (net::HostId h = 0; h < num_hosts(); ++h) {
      if (h == requester) continue;
      const ResultCache::Entry* entry = usable(h);
      if (entry == nullptr) continue;
      double bw = 0;
      if (monitoring_ != nullptr) {
        const auto sample =
            monitoring_->cache(requester).lookup_any_age(requester, h);
        if (sample) bw = sample->bandwidth;
      }
      if (bw > best_bw) {
        best_bw = bw;
        best = h;
        best_entry = entry;
      }
    }
    if (best_entry == nullptr) return std::nullopt;
  }

  Hit hit;
  hit.replica = best;
  hit.image = best_entry->image;
  hit.recreate_seconds = best_entry->recreate_seconds;
  hit.local = best == requester;
  return hit;
}

void CacheFabric::on_hit(const CacheKey& key, const Hit& hit,
                         net::HostId requester, double bytes_saved,
                         double now, int session) {
  // The source entry can be gone by now (evicted or invalidated while the
  // fetch was in flight); the bytes were already served, so still a hit.
  cache_at(hit.replica).touch(key, ++tick_);
  ++hits_;
  bytes_saved_ += bytes_saved;
  if (hits_counter_ != nullptr) {
    hits_counter_->add();
    bytes_saved_counter_->add(bytes_saved);
    host_obs_[static_cast<std::size_t>(requester)].hits->add();
  }
  if (obs_.decisions != nullptr) {
    obs_.decisions->record(now, "cache", "hit", session,
                           {{"key", key.signature},
                            {"iteration", key.iteration},
                            {"replica", hit.replica},
                            {"requester", requester},
                            {"bytes", hit.image.bytes},
                            {"local", hit.local ? 1 : 0}});
  }
  if (!hit.local && config_.diffusion) {
    // Data diffusion: the result just proved useful here — replicate it at
    // the requester so the next ask is local.
    evicted_.clear();
    if (cache_at(requester).insert(key, hit.image, hit.recreate_seconds,
                                   ++tick_, &evicted_)) {
      ++diffusions_;
      if (diffusions_counter_ != nullptr) diffusions_counter_->add();
      if (obs_.decisions != nullptr) {
        obs_.decisions->record(now, "cache", "diffuse", session,
                               {{"key", key.signature},
                                {"iteration", key.iteration},
                                {"from", hit.replica},
                                {"to", requester},
                                {"bytes", hit.image.bytes}});
      }
    }
    note_evictions(requester, now, session);
    update_host_gauges(requester);
    update_replica_gauge();
  }
}

void CacheFabric::on_miss(net::HostId requester) {
  ++misses_;
  if (misses_counter_ != nullptr) {
    misses_counter_->add();
    host_obs_[static_cast<std::size_t>(requester)].misses->add();
  }
}

void CacheFabric::insert(const CacheKey& key,
                         const workload::ImageSpec& image, net::HostId host,
                         double recreate_seconds, double now, int session) {
  evicted_.clear();
  if (cache_at(host).insert(key, image, recreate_seconds, ++tick_,
                            &evicted_)) {
    ++insertions_;
    if (insertions_counter_ != nullptr) insertions_counter_->add();
  }
  note_evictions(host, now, session);
  update_host_gauges(host);
  update_replica_gauge();
}

void CacheFabric::note_evictions(net::HostId host, double now,
                                 int session) {
  for (const CacheKey& key : evicted_) {
    ++evictions_;
    if (evictions_counter_ != nullptr) {
      evictions_counter_->add();
      host_obs_[static_cast<std::size_t>(host)].evictions->add();
    }
    if (obs_.decisions != nullptr) {
      obs_.decisions->record(now, "cache", "evict", session,
                             {{"key", key.signature},
                              {"iteration", key.iteration},
                              {"host", host},
                              {"policy", eviction_policy_name(config_.policy)}});
    }
  }
}

void CacheFabric::invalidate_host(net::HostId host, double now) {
  if (host < 0 || static_cast<std::size_t>(host) >= caches_.size()) return;
  ResultCache& cache = cache_at(host);
  const std::size_t dropped = cache.entries();
  if (dropped == 0) return;  // repeat notifications are no-ops
  cache.clear();
  invalidated_replicas_ += dropped;
  if (invalidations_counter_ != nullptr) {
    invalidations_counter_->add(static_cast<double>(dropped));
  }
  if (obs_.decisions != nullptr) {
    obs_.decisions->record(
        now, "cache", "invalidate_host", /*session=*/-1,
        {{"host", host},
         {"replicas_dropped", static_cast<std::uint64_t>(dropped)}});
  }
  update_host_gauges(host);
  update_replica_gauge();
}

void CacheFabric::update_host_gauges(net::HostId host) {
  if (host_obs_.empty()) return;
  HostObs& ho = host_obs_[static_cast<std::size_t>(host)];
  const ResultCache& cache = host_cache(host);
  ho.entries->set(static_cast<double>(cache.entries()));
  ho.bytes->set(cache.bytes_used());
}

void CacheFabric::update_replica_gauge() {
  if (replicas_gauge_ != nullptr) {
    replicas_gauge_->set(static_cast<double>(replicas()));
  }
}

}  // namespace wadc::cache
