// The on-demand distributed bandwidth monitoring subsystem.
//
// Implements the scheme of §4 end-to-end:
//   (1) passive monitoring — when a message of size >= S_thres moves between
//       A and B, both endpoints learn the bandwidth of {A, B};
//   (2) per-host measurement caches with a T_thres timeout;
//   (3) piggybacking — outgoing messages carry the sender's most recent
//       cache entries, up to a 1KB budget;
//   (4) on-demand probes — when a placement algorithm needs a pair it has
//       no fresh sample for, a 16KB round-trip probe is issued (possibly
//       delegated to a remote host for third-party pairs).
//
// This subsystem stands in for Komodo / the Network Weather Service (§3).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "monitor/bandwidth_cache.h"
#include "net/network.h"
#include "net/reliable_transfer.h"
#include "obs/obs.h"
#include "sim/task.h"

namespace wadc::monitor {

// The message-size constants (S_thres, the probe size, the delegation
// control messages) are fixed by the study and live in
// monitoring_system.cc. Passive monitoring is always on.
struct MonitorParams {
  // The piggyback budget (§4: 1 KB) and the wire size of one sample.
  static constexpr std::size_t piggyback_budget_bytes = 1024;
  static constexpr std::size_t piggyback_entry_bytes = 16;

  sim::SimTime t_thres_seconds = 40;       // cache timeout (paper default)
  bool piggyback_enabled = true;           // ablations can disable these
  bool probing_enabled = true;
  // Timeout for the transfers a probe issues (0 = wait forever, the
  // pre-fault behavior). Fault-tolerant runs set this so a probe against a
  // crashed host resolves instead of hanging the placement decision.
  double probe_timeout_seconds = 0;
};

class MonitoringSystem {
 public:
  MonitoringSystem(net::Network& network, const MonitorParams& params);

  MonitoringSystem(const MonitoringSystem&) = delete;
  MonitoringSystem& operator=(const MonitoringSystem&) = delete;

  const MonitorParams& params() const { return params_; }

  // Attaches tracing/metrics: probe spans on the requester's control lane,
  // passive-sample / cache-outcome / piggyback counters, and a cache-age
  // histogram sampled at each fetch_bandwidth lookup.
  void set_obs(const obs::Obs& obs);

  BandwidthCache& cache(net::HostId h);
  const BandwidthCache& cache(net::HostId h) const;

  // ---- piggybacking --------------------------------------------------
  // Samples host `src` would attach to an outgoing message right now
  // (freshest entries that fit the 1KB budget). The shared form hands out
  // the cache's memoized snapshot — O(1) per message, null when
  // piggybacking is disabled — and is what the dataflow engine's per-hop
  // path uses; the vector form copies it.
  Payload piggyback_payload_shared(net::HostId src) const;
  std::vector<PairSample> piggyback_payload(net::HostId src) const;
  // Wire size of a payload; the dataflow engine adds this to message sizes.
  double payload_bytes(const std::vector<PairSample>& payload) const;
  double payload_bytes(const Payload& payload) const;
  // Merges an arriving payload into the receiver's cache.
  void deliver_payload(net::HostId dst, const std::vector<PairSample>& payload);
  void deliver_payload(net::HostId dst, const Payload& payload);

  // ---- probing -------------------------------------------------------
  // Ensures `requester` has a fresh sample for {a, b}, probing if needed.
  // If requester is an endpoint of the pair, the probe is a direct 16KB
  // round trip; otherwise a control message delegates the probe to `a` and
  // the result returns on the reply. Returns the (possibly refreshed)
  // bandwidth estimate, or nullopt if probing is disabled and no sample is
  // cached.
  sim::Task<std::optional<double>> fetch_bandwidth(net::HostId requester,
                                                   net::HostId a,
                                                   net::HostId b);

  // Fresh (unexpired) cache lookup at `h`'s cache.
  std::optional<double> cached_bandwidth(net::HostId h, net::HostId a,
                                         net::HostId b) const;

  // Drops every cached sample (at every host) for pairs involving `h`.
  // Called on host crash: measurements through a dead host are meaningless,
  // and serving them would steer placement toward the corpse.
  void invalidate_host(net::HostId h);

  // ---- statistics ----------------------------------------------------
  std::uint64_t passive_samples() const { return passive_samples_; }
  std::uint64_t probes_issued() const { return probes_issued_; }
  double probe_bytes_sent() const { return probe_bytes_sent_; }

 private:
  void on_transfer(const net::TransferRecord& rec);
  // Direct round-trip probe between endpoints a and b. Returns false if a
  // leg failed or timed out (no measurement was produced).
  sim::Task<bool> run_probe(net::HostId a, net::HostId b);
  // Classifies the state of `requester`'s cache entry for {a, b} right
  // before a fetch (hit / stale / miss) and samples the entry's age.
  void record_lookup_obs(net::HostId requester, net::HostId a, net::HostId b);
  // Updates the cache-size gauge after any cache mutation.
  void note_cache_size();

  net::Network& network_;
  MonitorParams params_;
  // Transport for probe and delegation traffic: the probe deadline (or its
  // absence) lives in the channel's policy instead of being recomputed at
  // every transfer site. Probes never retry — a failed leg abandons the
  // measurement.
  net::ReliableChannel probe_channel_;
  std::vector<std::unique_ptr<BandwidthCache>> caches_;
  std::uint64_t passive_samples_ = 0;
  std::uint64_t probes_issued_ = 0;
  double probe_bytes_sent_ = 0;

  // Observability (all null when detached).
  obs::Obs obs_;
  obs::Counter* passive_counter_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_stale_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* piggyback_samples_ = nullptr;
  obs::Counter* piggyback_bytes_ = nullptr;
  obs::Counter* probes_counter_ = nullptr;
  obs::Counter* probes_delegated_ = nullptr;
  obs::Counter* probe_bytes_counter_ = nullptr;
  obs::Counter* invalidations_ = nullptr;  // lazy: fault runs only
  obs::Gauge* cache_entries_ = nullptr;  // total entries across all caches
  obs::Histogram* cache_age_seconds_ = nullptr;
};

}  // namespace wadc::monitor
