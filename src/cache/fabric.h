// The shared result-cache fabric: per-host ResultCaches, replica choice,
// the diffusion policy, and the observability surface.
//
// One fabric exists per run (exp::run_experiment / run_session_experiment
// construct it when the spec enables caching) and is shared by every
// concurrent session engine through EngineParams::cache_fabric, so a result
// materialized by one session is addressable by all of them. It lives
// *below* the dataflow layer: it never includes dataflow/ or session/ —
// engines drive it through this narrow API (tools/check_layering.sh pins
// the boundary).
//
// Replicas: a key's replicas are the hosts whose cache holds it; there is
// no separate directory to keep in step. Replica choice: a requester that
// holds a live replica itself is always served locally; otherwise the
// hosts are probed in ascending id and the live replica with the highest
// bandwidth estimate toward the requester wins (monitor::BandwidthCache
// samples, any age), with unknown pairs treated as slowest and the lower
// host id winning ties. The actual byte movement is the engine's job — the
// fabric only answers "where from"; the engine reports the outcome back
// via on_hit/on_miss so metrics reflect results actually served, not
// lookups attempted.
//
// Diffusion (on by default): after a remote hit, a copy of the entry is
// inserted at the requester's host — popular sub-results migrate toward
// the hosts (ultimately the clients) that keep asking for them, in the
// spirit of the data-diffusion literature (PAPERS.md).
//
// Determinism: all recency/eviction ordering uses a fabric-local logical
// tick, eviction breaks every tie by key, no hash-container order reaches
// an output (the per-host caches are hash maps, but nothing iterates
// them), replica choice walks host ids in order, and the fabric is driven
// only from simulation events, so cache behavior is byte-identical for any
// --jobs value. A null fabric pointer (cache disabled) leaves every engine
// code path and all observability output exactly as before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_config.h"
#include "cache/cache_key.h"
#include "cache/result_cache.h"
#include "net/types.h"
#include "obs/obs.h"
#include "workload/image_workload.h"

namespace wadc::monitor {
class MonitoringSystem;
}  // namespace wadc::monitor

namespace wadc::cache {

class CacheFabric {
 public:
  // `monitoring` (optional) supplies the bandwidth estimates for replica
  // choice and may be null (tests); `obs` may be the null sink.
  CacheFabric(const CacheConfig& config, int num_hosts,
              const monitor::MonitoringSystem* monitoring,
              const obs::Obs& obs);

  CacheFabric(const CacheFabric&) = delete;
  CacheFabric& operator=(const CacheFabric&) = delete;

  struct Hit {
    net::HostId replica = -1;
    workload::ImageSpec image;
    double recreate_seconds = 0;
    bool local = false;
  };

  // Best live replica for `key` as seen from `requester`, or nullopt.
  // Pure query: counters are untouched until on_hit/on_miss report how the
  // attempt actually ended. `alive` filters out crashed hosts.
  std::optional<Hit> lookup(
      const CacheKey& key, net::HostId requester,
      const std::function<bool(net::HostId)>& alive) const;

  // The requester served `hit` (after fetching its bytes, if remote):
  // bumps recency and hit counters, logs the decision, and — for remote
  // hits with diffusion enabled — replicates the entry at the requester.
  void on_hit(const CacheKey& key, const Hit& hit, net::HostId requester,
              double bytes_saved, double now, int session);

  // The requester found no usable replica (or the fetch failed and it fell
  // back to recomputing).
  void on_miss(net::HostId requester);

  // Registers a freshly materialized result at `host`.
  void insert(const CacheKey& key, const workload::ImageSpec& image,
              net::HostId host, double recreate_seconds, double now,
              int session);

  // Drops every replica held on `host` (crash / blackout recovery); the
  // entries' bytes are gone with the host, so serving them is forbidden.
  void invalidate_host(net::HostId host, double now);

  const CacheConfig& config() const { return config_; }
  int num_hosts() const { return static_cast<int>(caches_.size()); }
  const ResultCache& host_cache(net::HostId host) const;
  // Replicas held across all hosts (the cache.replicas gauge).
  std::size_t replicas() const;

  // Raw totals (mirrors of the obs counters, available without a registry).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t diffusions() const { return diffusions_; }
  std::uint64_t invalidated_replicas() const { return invalidated_replicas_; }
  double bytes_saved() const { return bytes_saved_; }

 private:
  struct HostObs {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* entries = nullptr;
    obs::Gauge* bytes = nullptr;
  };

  ResultCache& cache_at(net::HostId host);
  // Applies the eviction batch in evicted_, from an insert at `host`, to
  // the counters and decision log.
  void note_evictions(net::HostId host, double now, int session);
  void update_host_gauges(net::HostId host);
  void update_replica_gauge();

  CacheConfig config_;
  const monitor::MonitoringSystem* monitoring_;
  std::vector<std::unique_ptr<ResultCache>> caches_;
  std::uint64_t tick_ = 0;  // logical recency clock
  std::vector<CacheKey> evicted_;  // one insert's victims, reused

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t diffusions_ = 0;
  std::uint64_t invalidated_replicas_ = 0;
  double bytes_saved_ = 0;

  obs::Obs obs_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* insertions_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* diffusions_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  obs::Counter* bytes_saved_counter_ = nullptr;
  obs::Gauge* replicas_gauge_ = nullptr;
  std::vector<HostObs> host_obs_;
};

}  // namespace wadc::cache
